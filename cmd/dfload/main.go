// Command dfload is the fleet load generator and demo driver.
//
// Without -target it orchestrates the full fleet scenario in-process: a
// dfstored hub, one cold dfserved replica, N-2 replicas booted alongside
// it, one replica booted late, and one replica on a different tenant.
// The cold replica discovers a winner under sustained load; the winner
// replicates through the hub and warm-starts every same-tenant replica
// (live or at boot), while the off-tenant replica learns on its own.
// dfload asserts the invariants — warm-start hits > 0 on replicas 2..N,
// zero on the off-tenant replica, clean drains — prints a JSON report,
// and exits non-zero if any assertion failed.
//
//	dfload [-replicas 3] [-section sort] [-iters N] [-qps 50]
//	       [-duration 10s] [-tenant demo] [-workers 2]
//	       [-sampling 2ms] [-production 500ms]
//	       [-metrics-out DIR] [-log text|json] [-version]
//
// With -target it only drives load against an existing replica:
//
//	dfload -target http://host:8080 [-section sort] [-iters N]
//	       [-qps 50] [-duration 10s]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
)

func main() {
	target := flag.String("target", "", "drive an existing replica instead of orchestrating a fleet")
	replicas := flag.Int("replicas", 3, "fleet size (demo mode)")
	section := flag.String("section", "sort", "native section to drive")
	iters := flag.Int("iters", 0, "iterations per request (0 = section default)")
	qps := flag.Float64("qps", 50, "sustained request rate")
	duration := flag.Duration("duration", 10*time.Second, "load duration (per phase in demo mode)")
	tenant := flag.String("tenant", "demo", "fleet tenant namespace (demo mode)")
	workers := flag.Int("workers", 2, "workers per section (demo mode)")
	sampling := flag.Duration("sampling", 2*time.Millisecond, "target sampling interval (demo mode)")
	production := flag.Duration("production", 500*time.Millisecond, "target production interval (demo mode)")
	metricsOut := flag.String("metrics-out", "", "directory for final /metrics scrapes (demo mode)")
	logFormat := flag.String("log", "text", "log format: text or json")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("dfload %s (%s)\n", buildinfo.Version(), buildinfo.Runtime())
		return
	}
	logger, err := fleet.NewLogger(*logFormat)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	if *target != "" {
		rep := fleet.Drive(ctx, *target, fleet.LoadConfig{
			Section: *section, Iters: *iters, QPS: *qps, Duration: *duration,
		})
		logger.Info("drive complete", "target", *target,
			"requests", rep.Requests, "errors", rep.Errors, "elapsed", rep.Elapsed)
		printJSON(rep)
		if rep.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	report, err := fleet.RunDemo(ctx, fleet.DemoConfig{
		Replicas:   *replicas,
		Section:    *section,
		Iters:      *iters,
		QPS:        *qps,
		Duration:   *duration,
		Tenant:     *tenant,
		Workers:    *workers,
		Sampling:   *sampling,
		Production: *production,
		MetricsDir: *metricsOut,
		Logger:     logger,
	})
	if report != nil {
		printJSON(report)
	}
	if err != nil {
		fatal(err)
	}
	logger.Info("fleet demo passed",
		"winner", report.Replicas[0].Winner,
		"cold_sampled_intervals", report.Replicas[0].SampledAtWinner)
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfload:", err)
	os.Exit(1)
}
