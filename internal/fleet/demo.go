// The fleet demo: the end-to-end scenario cmd/dfload and the CI smoke
// job run. One cold replica discovers a winner under load; the winner
// replicates through the hub; the remaining replicas of the same tenant
// warm-start from it — live (watch → reseed) for replicas booted before
// the discovery, at boot (bootstrap resync) for replicas booted after —
// while a replica of a different tenant sees none of it.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"
)

// DemoConfig parameterizes RunDemo.
type DemoConfig struct {
	// Replicas is the fleet size, at least 2: replica 1 runs cold,
	// replicas 2..N-1 boot alongside it and warm-start live, replica N
	// boots after the winner exists and warm-starts at boot.
	Replicas int
	// Section is the native section to drive. Default "sort".
	Section string
	// Iters is the per-request iteration count (0 = section default).
	Iters int
	// QPS and Duration shape the sustained load on each replica.
	QPS      float64
	Duration time.Duration
	// Tenant namespaces the fleet; an extra off-tenant replica verifies
	// isolation. Default "demo".
	Tenant string
	// Workers, Sampling, Production are passed to each replica's
	// sections. Workers defaults to 2 so an N-replica fleet fits small
	// hosts.
	Workers    int
	Sampling   time.Duration
	Production time.Duration
	// MetricsDir, when non-empty, receives a final /metrics scrape of
	// the hub and every replica (hub.prom, <replica>.prom).
	MetricsDir string
	// Logger receives fleet progress logs. Default slog.Default().
	Logger *slog.Logger
}

// ReplicaReport is one replica's outcome.
type ReplicaReport struct {
	Name string `json:"name"`
	// Tenant is the replica's namespace.
	Tenant string `json:"tenant"`
	// WarmStartHits is the replica's final warm-start counter.
	WarmStartHits int64 `json:"warm_start_hits"`
	// Winner is the driven section's final winner.
	Winner string `json:"winner"`
	// SampledAtWinner counts sampling intervals the replica itself spent
	// before reaching its winner (seeded history excluded) — the local
	// cost of reaching production. Cold replicas pay at least one
	// interval per variant; warm-started replicas sample only the seeded
	// winner (§4.5), so they adapt measurably faster.
	SampledAtWinner int `json:"sampled_at_winner"`
	// Requests and Errors are the load driver's counts for this replica.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// DrainErr is the drain failure, "" on a clean drain.
	DrainErr string `json:"drain_err,omitempty"`
}

// DemoReport is RunDemo's outcome. Failed assertions are returned as an
// error alongside the report, which is always populated as far as the
// demo got.
type DemoReport struct {
	Section  string          `json:"section"`
	HubURL   string          `json:"hub_url"`
	Replicas []ReplicaReport `json:"replicas"`
	// Isolated is the off-tenant replica's report; its WarmStartHits
	// must stay 0.
	Isolated ReplicaReport `json:"isolated"`
}

func (c DemoConfig) withDefaults() DemoConfig {
	if c.Replicas < 2 {
		c.Replicas = 3
	}
	if c.Section == "" {
		c.Section = "sort"
	}
	if c.QPS <= 0 {
		c.QPS = 50
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Tenant == "" {
		c.Tenant = "demo"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Sampling <= 0 {
		c.Sampling = 2 * time.Millisecond
	}
	if c.Production <= 0 {
		c.Production = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// RunDemo executes the fleet scenario and asserts its invariants:
// every same-tenant replica beyond the first warm-starts (hit counter
// > 0), the off-tenant replica never does, and every component drains
// cleanly. The returned report carries the evidence either way.
func RunDemo(ctx context.Context, cfg DemoConfig) (*DemoReport, error) {
	cfg = cfg.withDefaults()
	log := cfg.Logger
	report := &DemoReport{Section: cfg.Section}

	hub, err := StartHub("", nil, log)
	if err != nil {
		return report, err
	}
	defer hub.Close()
	report.HubURL = hub.URL
	log.Info("fleet hub up", "url", hub.URL)

	rcfg := func(name, tenant string) ReplicaConfig {
		return ReplicaConfig{
			Name:             name,
			HubURL:           hub.URL,
			Tenant:           tenant,
			Workers:          cfg.Workers,
			TargetSampling:   cfg.Sampling,
			TargetProduction: cfg.Production,
			Logger:           log.With("replica", name),
		}
	}

	// Replica 1 (cold) and replicas 2..N-1 boot together; the latter sit
	// idle, waiting to be warm-started live by replica 1's discovery.
	var replicas []*Replica
	drainAll := func() {
		for _, r := range replicas {
			if r == nil {
				continue
			}
			dctx, done := context.WithTimeout(context.Background(), DrainTimeout)
			err := r.Drain(dctx)
			done()
			if err != nil {
				if report.Isolated.Name == r.Name {
					report.Isolated.DrainErr = err.Error()
				}
				for i := range report.Replicas {
					if report.Replicas[i].Name == r.Name {
						report.Replicas[i].DrainErr = err.Error()
					}
				}
				log.Warn("replica drain failed", "replica", r.Name, "err", err)
			}
		}
		replicas = nil
	}
	defer drainAll()

	for i := 1; i < cfg.Replicas; i++ { // 1..N-1 now; N after the winner
		name := fmt.Sprintf("replica-%d", i)
		r, err := StartReplica(rcfg(name, cfg.Tenant))
		if err != nil {
			return report, err
		}
		replicas = append(replicas, r)
		report.Replicas = append(report.Replicas, ReplicaReport{Name: name, Tenant: cfg.Tenant})
		log.Info("replica up", "replica", name, "url", r.URL)
	}
	isolated, err := StartReplica(rcfg("isolated", cfg.Tenant+"-other"))
	if err != nil {
		return report, err
	}
	replicas = append(replicas, isolated)
	report.Isolated = ReplicaReport{Name: "isolated", Tenant: cfg.Tenant + "-other"}

	// Phase 1: drive the cold replica until it discovers a winner.
	cold := replicas[0]
	log.Info("driving cold replica", "replica", cold.Name, "section", cfg.Section, "qps", cfg.QPS)
	coldRep := Drive(ctx, cold.URL, LoadConfig{
		Section: cfg.Section, Iters: cfg.Iters, QPS: cfg.QPS, Duration: cfg.Duration,
		Until: func() bool {
			p, err := Probe(ctx, cold.URL)
			return err == nil && p.Sections[cfg.Section].Winner != ""
		},
	})
	report.Replicas[0].Requests = coldRep.Requests
	report.Replicas[0].Errors = coldRep.Errors
	p, err := Probe(ctx, cold.URL)
	if err != nil {
		return report, err
	}
	coldSec := p.Sections[cfg.Section]
	if coldSec.Winner == "" {
		return report, fmt.Errorf("fleet: cold replica found no winner within %v (%d requests)",
			cfg.Duration, coldRep.Requests)
	}
	report.Replicas[0].Winner = coldSec.Winner
	report.Replicas[0].SampledAtWinner = sampledIntervals(coldSec)
	log.Info("cold replica converged", "winner", coldSec.Winner,
		"sampled_intervals", sampledIntervals(coldSec), "requests", coldRep.Requests)

	// Phase 2: the winner replicates; live replicas reseed through their
	// store watch without having served a single request.
	for i, r := range replicas[:len(replicas)-1] {
		if i == 0 {
			continue
		}
		if err := WaitFor(ctx, cfg.Duration, 20*time.Millisecond, func() bool {
			return r.Server.WarmStartHits() > 0
		}); err != nil {
			return report, fmt.Errorf("fleet: %s never warm-started from the fleet record: %w", r.Name, err)
		}
		log.Info("replica warm-started live", "replica", r.Name)
	}

	// Phase 3: a late replica boots after the winner exists and
	// warm-starts during its bootstrap resync, before serving anything.
	lateName := fmt.Sprintf("replica-%d", cfg.Replicas)
	late, err := StartReplica(rcfg(lateName, cfg.Tenant))
	if err != nil {
		return report, err
	}
	replicas = append(replicas, late)
	report.Replicas = append(report.Replicas, ReplicaReport{Name: lateName, Tenant: cfg.Tenant})
	if err := WaitFor(ctx, cfg.Duration, 20*time.Millisecond, func() bool {
		return late.Server.WarmStartHits() > 0
	}); err != nil {
		return report, fmt.Errorf("fleet: late replica never warm-started at boot: %w", err)
	}
	log.Info("late replica warm-started at boot", "replica", lateName)

	// Phase 4: drive every warm replica and the off-tenant one; warm
	// replicas must reach production having sampled only the seeded
	// winner, the off-tenant replica learns on its own.
	warm := append(append([]*Replica{}, replicas[1:len(replicas)-2]...), late)
	for _, r := range warm {
		base, err := Probe(ctx, r.URL)
		if err != nil {
			return report, err
		}
		seeded := sampledIntervals(base.Sections[cfg.Section])
		rep := Drive(ctx, r.URL, LoadConfig{
			Section: cfg.Section, Iters: cfg.Iters, QPS: cfg.QPS, Duration: cfg.Duration,
			Until: func() bool {
				p, err := Probe(ctx, r.URL)
				return err == nil && p.Sections[cfg.Section].Winner != ""
			},
		})
		p, err := Probe(ctx, r.URL)
		if err != nil {
			return report, err
		}
		sec := p.Sections[cfg.Section]
		for i := range report.Replicas {
			if report.Replicas[i].Name != r.Name {
				continue
			}
			report.Replicas[i].Requests = rep.Requests
			report.Replicas[i].Errors = rep.Errors
			report.Replicas[i].Winner = sec.Winner
			report.Replicas[i].SampledAtWinner = sampledIntervals(sec) - seeded
			report.Replicas[i].WarmStartHits = p.WarmStartHits
		}
		log.Info("warm replica converged", "replica", r.Name, "winner", sec.Winner,
			"sampled_intervals", sampledIntervals(sec)-seeded, "warm_start_hits", p.WarmStartHits)
	}
	isoRep := Drive(ctx, isolated.URL, LoadConfig{
		Section: cfg.Section, Iters: cfg.Iters, QPS: cfg.QPS, Duration: cfg.Duration,
		Until: func() bool {
			p, err := Probe(ctx, isolated.URL)
			return err == nil && p.Sections[cfg.Section].Winner != ""
		},
	})
	ip, err := Probe(ctx, isolated.URL)
	if err != nil {
		return report, err
	}
	report.Isolated.Requests = isoRep.Requests
	report.Isolated.Errors = isoRep.Errors
	report.Isolated.Winner = ip.Sections[cfg.Section].Winner
	report.Isolated.SampledAtWinner = sampledIntervals(ip.Sections[cfg.Section])
	report.Isolated.WarmStartHits = ip.WarmStartHits

	// Final scrapes before the fleet drains.
	if cfg.MetricsDir != "" {
		if err := os.MkdirAll(cfg.MetricsDir, 0o755); err != nil {
			return report, err
		}
		targets := map[string]string{"hub": hub.URL}
		for _, r := range replicas {
			targets[r.Name] = r.URL
		}
		for name, url := range targets {
			body, err := ScrapeMetrics(ctx, url)
			if err != nil {
				return report, fmt.Errorf("fleet: scraping %s: %w", name, err)
			}
			path := filepath.Join(cfg.MetricsDir, name+".prom")
			if err := os.WriteFile(path, body, 0o644); err != nil {
				return report, err
			}
		}
		log.Info("metrics scraped", "dir", cfg.MetricsDir, "targets", len(targets))
	}

	// Assertions.
	var failures []error
	for _, rr := range report.Replicas[1:] {
		if rr.WarmStartHits == 0 {
			failures = append(failures, fmt.Errorf("replica %s: warm-start hits = 0, want > 0", rr.Name))
		}
		if rr.Winner != report.Replicas[0].Winner {
			failures = append(failures, fmt.Errorf("replica %s: winner %q diverged from the fleet's %q",
				rr.Name, rr.Winner, report.Replicas[0].Winner))
		}
		if rr.SampledAtWinner >= report.Replicas[0].SampledAtWinner {
			failures = append(failures, fmt.Errorf(
				"replica %s: sampled %d intervals before its winner, not fewer than the cold replica's %d",
				rr.Name, rr.SampledAtWinner, report.Replicas[0].SampledAtWinner))
		}
	}
	if report.Isolated.WarmStartHits != 0 {
		failures = append(failures, fmt.Errorf("off-tenant replica warm-started from tenant %q records (hits=%d)",
			cfg.Tenant, report.Isolated.WarmStartHits))
	}
	drainAll()
	for _, rr := range append(report.Replicas, report.Isolated) {
		if rr.DrainErr != "" {
			failures = append(failures, fmt.Errorf("replica %s: drain: %s", rr.Name, rr.DrainErr))
		}
	}
	if len(failures) > 0 {
		return report, fmt.Errorf("fleet: %d assertion(s) failed: %v", len(failures), failures)
	}
	return report, nil
}
