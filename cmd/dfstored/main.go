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
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	dataDir := flag.String("data", "", "KV directory persisting hub state (empty = memory only)")
	logFormat := flag.String("log", "text", "log format: text or json")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("dfstored %s (%s)\n", buildinfo.Version(), buildinfo.Runtime())
		return
	}
	logger, err := fleet.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fatal(err)
	}
	backing, err := fleet.OpenKV(*dataDir, logger)
	if err != nil {
		fatal(err)
	}
	h, err := fleet.StartHub(*addr, backing, logger)
	if err != nil {
		fatal(err)
	}
	logger.Info("dfstored listening", "addr", h.URL, "version", buildinfo.Version(), "data", *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	logger.Info("draining on signal", "signal", (<-sig).String())
	if err := h.Close(); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	logger.Info("dfstored drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfstored:", err)
	os.Exit(1)
}
