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
// Usage:
//
//	dfserved [-addr :8080] [-workers N] [-sampling 5ms] [-production 2s]
//	         [-controller roundrobin|ucb] [-max-concurrent N] [-cold]
//	         [-simcache dir] [-log text|json]
//	         [-store policies.json | -kv dir]
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
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/dynfb/store"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simcache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storePath := flag.String("store", "", "policy store file (JSON; empty = in-memory, knowledge dies with the process)")
	kvDir := flag.String("kv", "", "policy store directory (embedded write-ahead-logged KV); mutually exclusive with -store")
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
	logger, err := newLogger(*logFormat)
	if err != nil {
		fatal(err)
	}
	if *storePath != "" && *kvDir != "" {
		fatal(fmt.Errorf("set at most one of -store and -kv"))
	}
	if *tenant != "" && *hubURL == "" && *storePath == "" && *kvDir == "" {
		fatal(fmt.Errorf("-tenant needs a store to namespace: set -hub, -store or -kv"))
	}

	if !core.ValidKind(*controller) {
		fmt.Fprintf(os.Stderr, "dfserved: unknown controller %q (want %s or %s)\n", *controller, core.KindRoundRobin, core.KindUCB)
		os.Exit(2)
	}
	cfg := serve.Config{
		Workers:          *workers,
		TargetSampling:   *sampling,
		TargetProduction: *production,
		MaxConcurrent:    *maxConcurrent,
		ColdStart:        *cold,
		Tenant:           *tenant,
		Logger:           logger,
		Controller:       *controller,
	}

	// The local store: a JSON file, an embedded KV directory, or memory.
	var local store.Backend
	switch {
	case *storePath != "":
		fs, err := store.OpenFile(*storePath)
		if err != nil {
			fatal(err)
		}
		if warn := fs.LoadWarning(); warn != "" {
			logger.Warn("store loaded with damage tolerated", "warning", warn)
		}
		local = fs
	case *kvDir != "":
		kv, err := store.OpenKV(*kvDir)
		if err != nil {
			fatal(err)
		}
		if warn := kv.LoadWarning(); warn != "" {
			logger.Warn("store loaded with damage tolerated", "warning", warn)
		}
		local = kv
	}

	// With a hub, the local store becomes the replication cache; without
	// one it is the store itself.
	var backend store.Backend
	switch {
	case *hubURL != "":
		rs, err := store.OpenRepl(store.ReplConfig{
			HubURL: *hubURL,
			Origin: *origin,
			Local:  local, // nil = memory cache
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		backend = rs
	case local != nil:
		backend = local
	}
	cfg.Backend = backend

	if *simcacheDir != "" {
		c, err := simcache.New(simcache.Config{Dir: *simcacheDir})
		if err != nil {
			fatal(err)
		}
		cfg.Cache = c
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful drain: stop accepting connections, let in-flight requests
	// finish, persist every section, flush the store.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("draining on signal", "signal", s.String())
		ctx, done := context.WithTimeout(context.Background(), 10*time.Second)
		defer done()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete; closing", "err", err)
			httpSrv.Close()
		}
	}()

	logger.Info("dfserved listening", "addr", *addr, "version", buildinfo.Version(),
		"sections", srv.SectionNames(), "store", storeDesc(*storePath, *kvDir, *hubURL),
		"tenant", *tenant)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	if err := srv.Close(); err != nil {
		logger.Warn("persist on shutdown", "err", err)
	}
	if backend != nil {
		if err := backend.Close(); err != nil {
			logger.Warn("closing store", "err", err)
		}
	}
	logger.Info("dfserved drained cleanly")
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

func storeDesc(path, kv, hub string) string {
	switch {
	case hub != "":
		return "hub " + hub
	case kv != "":
		return "kv " + kv
	case path != "":
		return path
	}
	return "in-memory"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfserved:", err)
	os.Exit(1)
}
