// Command dfserved is a long-running server for adaptive sections: it
// keeps the bundled native workloads hot behind named dynamic feedback
// sections, runs compiled OBL programs on the simulated machine, and
// persists what sampling learns so a restarted server warm-starts from
// its previous winners (§4.5 generalized across runs).
//
// As a fleet member (-hub), the policy store replicates through a
// dfstored hub: winners discovered on one replica warm-start every other
// replica serving the same tenant, live, without a restart. When the hub
// is unreachable the replica degrades to local-only operation and
// resyncs on reconnect (see docs/fleet.md).
//
// The command parses flags and hands them to fleet.StartReplica, the
// wiring cmd/dfload and the fleet tests run too. On SIGINT or SIGTERM it
// drains: it stops accepting connections, lets in-flight requests finish,
// persists every section and closes the store, which flushes pending
// pushes to the hub.
//
// Usage:
//
//	dfserved [-addr :8080] [-workers N] [-sampling 5ms] [-production 2s]
//	         [-controller roundrobin|ucb] [-max-concurrent N] [-cold]
//	         [-simcache dir] [-log text|json] [-kv dir]
//	         [-hub http://host:9090] [-tenant NAME] [-origin ID]
//	         [-version]
//
// Endpoints (see docs/serve.md):
//
//	GET  /healthz   liveness, version, counters
//	GET  /sections  registered sections and variants
//	GET  /stats     live per-variant overhead/winner JSON, warm-start
//	                hits, and hub sync status
//	GET  /metrics   Prometheus text-format metrics
//	POST /run       submit a workload: {"section":"sort","iters":50000}
//	                or {"app":"water","procs":8,"policy":"dynamic"}
//
// Exit codes: 0 after a clean drain (or -version); 1 when the replica
// cannot start or its drain fails; 2 for bad usage, reported before
// anything listens: an unknown flag, a positional argument, an unknown
// -log format or -controller, a -sampling or -production that is not
// positive, a negative -workers or -max-concurrent, and -tenant without
// -hub or -kv.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	kvDir := fs.String("kv", "", "policy store directory (embedded write-ahead-logged KV; empty = no store, knowledge dies with the process)")
	hubURL := fs.String("hub", "", "dfstored hub URL; replicates the policy store across the fleet")
	tenant := fs.String("tenant", "", "tenant namespace for fleet records (replicas of the same application share one)")
	origin := fs.String("origin", "", "replica identity in fleet records (default host:pid)")
	workers := fs.Int("workers", 0, "workers per native section (default GOMAXPROCS)")
	sampling := fs.Duration("sampling", 5*time.Millisecond, "target sampling interval")
	production := fs.Duration("production", 2*time.Second, "target production interval")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrently executing workload runs (default GOMAXPROCS)")
	cold := fs.Bool("cold", false, "ignore stored records at boot (always cold-start)")
	simcacheDir := fs.String("simcache", "", "content-addressed simulation cache directory for OBL runs (empty disables)")
	controller := fs.String("controller", "", "feedback controller: roundrobin (default) or ucb")
	logFormat := fs.String("log", "text", "log format: text or json")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "dfserved:", err)
		return code
	}
	if *showVersion {
		if _, err := fmt.Fprintf(stdout, "dfserved %s (%s)\n", buildinfo.Version(), buildinfo.Runtime()); err != nil {
			return fail(1, fmt.Errorf("write output: %w", err))
		}
		return 0
	}
	var bad error
	switch {
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *sampling <= 0, *production <= 0:
		// serve.Config would silently replace either with its default.
		bad = fmt.Errorf("-sampling and -production must be positive (got %v, %v)", *sampling, *production)
	case *workers < 0, *maxConcurrent < 0:
		bad = fmt.Errorf("-workers %d and -max-concurrent %d: want 0 (GOMAXPROCS) or more", *workers, *maxConcurrent)
	case !core.ValidKind(*controller):
		bad = fmt.Errorf("unknown controller %q (want %s or %s)", *controller, core.KindRoundRobin, core.KindUCB)
	case *tenant != "" && *hubURL == "" && *kvDir == "":
		bad = fmt.Errorf("-tenant needs a store to namespace: set -hub or -kv")
	}
	if bad != nil {
		return fail(2, bad)
	}
	logger, err := fleet.NewLogger(stderr, *logFormat)
	if err != nil {
		return fail(2, err)
	}

	r, err := fleet.StartReplica(fleet.ReplicaConfig{
		Name:             *origin,
		Addr:             *addr,
		HubURL:           *hubURL,
		KVDir:            *kvDir,
		Tenant:           *tenant,
		SimcacheDir:      *simcacheDir,
		Workers:          *workers,
		TargetSampling:   *sampling,
		TargetProduction: *production,
		MaxConcurrent:    *maxConcurrent,
		ColdStart:        *cold,
		Controller:       *controller,
		Logger:           logger,
	})
	if err != nil {
		return fail(1, err)
	}
	logger.Info("dfserved listening", "addr", r.URL, "version", buildinfo.Version(),
		"sections", r.Server.SectionNames(), "hub", *hubURL, "kv", *kvDir, "tenant", *tenant)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	logger.Info("draining on signal", "signal", (<-sig).String())
	ctx, done := context.WithTimeout(context.Background(), fleet.DrainTimeout)
	err = r.Drain(ctx)
	done()
	if err != nil {
		return fail(1, fmt.Errorf("drain: %w", err))
	}
	logger.Info("dfserved drained cleanly")
	return 0
}
