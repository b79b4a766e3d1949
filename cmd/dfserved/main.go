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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	kvDir := flag.String("kv", "", "policy store directory (embedded write-ahead-logged KV; empty = no store, knowledge dies with the process)")
	hubURL := flag.String("hub", "", "dfstored hub URL; replicates the policy store across the fleet")
	tenant := flag.String("tenant", "", "tenant namespace for fleet records (replicas of the same application share one)")
	origin := flag.String("origin", "", "replica identity in fleet records (default host:pid)")
	workers := flag.Int("workers", 0, "workers per native section (default GOMAXPROCS)")
	sampling := flag.Duration("sampling", 5*time.Millisecond, "target sampling interval")
	production := flag.Duration("production", 2*time.Second, "target production interval")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently executing workload runs (default GOMAXPROCS)")
	cold := flag.Bool("cold", false, "ignore stored records at boot (always cold-start)")
	simcacheDir := flag.String("simcache", "", "content-addressed simulation cache directory for OBL runs (empty disables)")
	controller := flag.String("controller", "", "feedback controller: roundrobin (default) or ucb")
	logFormat := flag.String("log", "text", "log format: text or json")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("dfserved %s (%s)\n", buildinfo.Version(), buildinfo.Runtime())
		return
	}
	logger, err := fleet.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fatal(err)
	}
	if *tenant != "" && *hubURL == "" && *kvDir == "" {
		fatal(fmt.Errorf("-tenant needs a store to namespace: set -hub or -kv"))
	}
	if !core.ValidKind(*controller) {
		fmt.Fprintf(os.Stderr, "dfserved: unknown controller %q (want %s or %s)\n", *controller, core.KindRoundRobin, core.KindUCB)
		os.Exit(2)
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
		fatal(err)
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
		fatal(fmt.Errorf("drain: %w", err))
	}
	logger.Info("dfserved drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfserved:", err)
	os.Exit(1)
}
