// Command dfstored is the fleet policy hub: the small server a fleet of
// dfserved replicas pushes winner records to and subscribes to peer
// updates from, so a policy learned by one replica warm-starts every
// other (see docs/fleet.md for the protocol).
//
// Usage:
//
//	dfstored [-addr :9090] [-data DIR] [-log text|json] [-version]
//
// With -data the hub persists its state in an embedded write-ahead-logged
// KV store and survives restarts; without it the state refills from the
// replicas' next pushes.
//
// The command parses flags and hands them to fleet.StartHub, the wiring
// cmd/dfload and the fleet tests run too. On SIGINT or SIGTERM it drains:
// it answers parked watches, waits for in-flight pushes and closes the
// KV store.
//
// Endpoints:
//
//	GET  /v1/state   full state dump (bootstrap)
//	POST /v1/push    merge records (last-writer-wins)
//	GET  /v1/watch   long-poll for updates since a cursor
//	GET  /healthz    liveness, record count, sequence
//	GET  /metrics    Prometheus text-format metrics
//
// Exit codes: 0 after a clean drain (or -version); 1 when the hub cannot
// start, its drain fails or the -version line cannot be written; 2 for
// bad usage, reported before anything listens: an unknown flag, a
// positional argument and an unknown -log format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfstored", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9090", "listen address")
	dataDir := fs.String("data", "", "KV directory persisting hub state (empty = memory only)")
	logFormat := fs.String("log", "text", "log format: text or json")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "dfstored:", err)
		return code
	}
	if *showVersion {
		if _, err := fmt.Fprintf(stdout, "dfstored %s (%s)\n", buildinfo.Version(), buildinfo.Runtime()); err != nil {
			return fail(1, fmt.Errorf("write output: %w", err))
		}
		return 0
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	logger, err := fleet.NewLogger(stderr, *logFormat)
	if err != nil {
		return fail(2, err)
	}
	backing, err := fleet.OpenKV(*dataDir, logger)
	if err != nil {
		return fail(1, err)
	}
	h, err := fleet.StartHub(*addr, backing, logger)
	if err != nil {
		return fail(1, err)
	}
	logger.Info("dfstored listening", "addr", h.URL, "version", buildinfo.Version(), "data", *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	logger.Info("draining on signal", "signal", (<-sig).String())
	if err := h.Close(); err != nil {
		return fail(1, fmt.Errorf("drain: %w", err))
	}
	logger.Info("dfstored drained cleanly")
	return 0
}
