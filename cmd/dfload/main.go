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
//
// Exit codes: 0 success; 1 when a driven request failed, a demo assertion
// failed or the report cannot be written; 2 for bad usage, reported before
// any hub, replica or load starts: an unknown flag, a positional argument,
// an unknown -log format, -qps not finite or outside (0, 1e9], -duration,
// -sampling or -production not positive, -replicas below 2, -workers
// below 1 or -iters below 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "", "drive an existing replica instead of orchestrating a fleet")
	replicas := fs.Int("replicas", 3, "fleet size (demo mode)")
	section := fs.String("section", "sort", "native section to drive")
	iters := fs.Int("iters", 0, "iterations per request (0 = section default)")
	qps := fs.Float64("qps", 50, "sustained request rate")
	duration := fs.Duration("duration", 10*time.Second, "load duration (per phase in demo mode)")
	tenant := fs.String("tenant", "demo", "fleet tenant namespace (demo mode)")
	workers := fs.Int("workers", 2, "workers per section (demo mode)")
	sampling := fs.Duration("sampling", 2*time.Millisecond, "target sampling interval (demo mode)")
	production := fs.Duration("production", 500*time.Millisecond, "target production interval (demo mode)")
	metricsOut := fs.String("metrics-out", "", "directory for final /metrics scrapes (demo mode)")
	logFormat := fs.String("log", "text", "log format: text or json")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "dfload:", err)
		return code
	}
	if *showVersion {
		if _, err := fmt.Fprintf(stdout, "dfload %s (%s)\n", buildinfo.Version(), buildinfo.Runtime()); err != nil {
			return fail(1, fmt.Errorf("write output: %w", err))
		}
		return 0
	}
	var bad error
	switch {
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case math.IsNaN(*qps) || *qps <= 0 || *qps > 1e9: // excludes ±Inf too
		bad = fmt.Errorf("-qps %g: want a rate in (0, 1e9]", *qps)
	case *duration <= 0, *sampling <= 0, *production <= 0:
		bad = fmt.Errorf("-duration, -sampling and -production must be positive (got %v, %v, %v)", *duration, *sampling, *production)
	case *replicas < 2:
		bad = fmt.Errorf("-replicas %d: a fleet needs at least 2", *replicas)
	case *workers < 1:
		bad = fmt.Errorf("-workers %d: want at least 1", *workers)
	case *iters < 0:
		bad = fmt.Errorf("-iters %d: want 0 (the section default) or more", *iters)
	}
	if bad != nil {
		return fail(2, bad)
	}
	logger, err := fleet.NewLogger(stderr, *logFormat)
	if err != nil {
		return fail(2, err)
	}
	ctx := context.Background()

	if *target != "" {
		rep := fleet.Drive(ctx, *target, fleet.LoadConfig{
			Section: *section, Iters: *iters, QPS: *qps, Duration: *duration,
		})
		logger.Info("drive complete", "target", *target,
			"requests", rep.Requests, "errors", rep.Errors, "elapsed", rep.Elapsed)
		if err := writeJSON(stdout, rep); err != nil {
			return fail(1, err)
		}
		if rep.Errors > 0 {
			return 1
		}
		return 0
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
		if werr := writeJSON(stdout, report); werr != nil {
			return fail(1, werr)
		}
	}
	if err != nil {
		return fail(1, err)
	}
	logger.Info("fleet demo passed",
		"winner", report.Replicas[0].Winner,
		"cold_sampled_intervals", report.Replicas[0].SampledAtWinner)
	return 0
}

// writeJSON writes v to w as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
