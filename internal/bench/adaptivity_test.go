package bench

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/perturb"
	"repro/internal/simcache"
	"repro/internal/simmach"
)

// crossoverOpts is the adapt-crossover experiment's cell for one policy,
// reused by the focused adaptivity tests below.
func crossoverOpts(policy string) interp.Options {
	return adaptScenarios[0].spec(progParallel, policy, "").Opts
}

// TestControllerReadaptsAcrossCrossover is the end-to-end re-adaptation
// test: the phantom lock holder switches on at 400ms and inverts the best
// POTENG policy, and the dynamic feedback controller must move production
// onto the new winner within the §5-derived latency bound — one production
// interval it may have just entered, plus a sampling phase over every
// version, plus execution-granularity slack (sampling intervals cover whole
// section executions on this substrate).
func TestControllerReadaptsAcrossCrossover(t *testing.T) {
	c, err := apps.Compile(apps.NameWater)
	if err != nil {
		t.Fatal(err)
	}
	boundary := perturb.Crossover().FirstChangeAt()

	agg, err := interp.Run(c.Parallel, crossoverOpts("aggressive"))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := interp.Run(c.Parallel, crossoverOpts(interp.PolicyDynamic))
	if err != nil {
		t.Fatal(err)
	}
	aggSec, dynSec := section(agg, "POTENG"), section(dyn, "POTENG")
	if aggSec == nil || dynSec == nil {
		t.Fatal("POTENG section missing")
	}

	// The post-change winner is the version the aggressive policy runs:
	// the phantom holder charges per acquire, and aggressive acquires the
	// accumulator lock once per row instead of once per pair.
	winner := aggSec.ChosenVersion
	aggA, aggB := phaseMeans(aggSec, boundary, boundary)
	if float64(aggB) >= 1.1*float64(aggA) {
		t.Fatalf("contention did not leave aggressive nearly flat: %v before vs %v after", aggA, aggB)
	}

	sw, ok := firstSwitchTo(dynSec, boundary, winner)
	if !ok {
		t.Fatalf("controller never entered production on the post-change winner %q; switches: %v",
			dynSec.VersionLabels[winner], dynSec.Switches)
	}
	latency := sw.At - boundary
	if latency <= 0 {
		t.Fatalf("switch to %q at %v precedes the %v change", sw.Label, sw.At, boundary)
	}
	maxExec := maxExecAfter([]*interp.SectionStats{aggSec, dynSec}, boundary)
	bound := 40*simmach.Millisecond + simmach.Time(len(dynSec.VersionLabels))*maxExec + 2*maxExec
	if latency > bound {
		t.Errorf("re-adaptation latency %v exceeds the §5 bound %v (P=40ms, N=%d, exec=%v)",
			latency, bound, len(dynSec.VersionLabels), maxExec)
	}

	// Before the change the controller must have been producing on the
	// other version — otherwise nothing re-adapted.
	preSwitches := 0
	for _, s := range dynSec.Switches {
		if s.At < boundary && s.Version != winner {
			preSwitches++
		}
	}
	if preSwitches == 0 {
		t.Errorf("controller never produced on the pre-change winner; switches: %v", dynSec.Switches)
	}
}

// TestPerturbedRunByteIdentical pins the determinism of a perturbed run:
// the same schedule replayed directly, through the suite engine at
// parallelism 8 (racing the other policies), and from a warm simulation
// cache must produce byte-identical encoded results.
func TestPerturbedRunByteIdentical(t *testing.T) {
	c, err := apps.Compile(apps.NameWater)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := interp.Run(c.Parallel, crossoverOpts(interp.PolicyDynamic))
	if err != nil {
		t.Fatal(err)
	}
	want, err := simcache.EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewSuite(SuiteConfig{Parallelism: 8, Cache: cache})
	_, results, _, err := runScenario(cold, "crossover")
	if err != nil {
		t.Fatal(err)
	}
	par, err := simcache.EncodeResult(results[len(results)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, par) {
		t.Error("parallel-8 suite run differs from direct interp.Run")
	}

	warm := NewSuite(SuiteConfig{Parallelism: 1, Cache: cache})
	hit, err := warm.Run(apps.NameWater, crossoverOpts(interp.PolicyDynamic))
	if err != nil {
		t.Fatal(err)
	}
	got, err := simcache.EncodeResult(hit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("cache-warm replay differs from direct interp.Run")
	}
	if cache.Stats().Hits() == 0 {
		t.Error("warm suite did not hit the simulation cache")
	}
}

// TestPerturbedRunsNeverShareCacheEntry is the end-to-end guard on the
// cache-key encoding: the same program and options with and without a
// perturbation schedule — and under two different schedules — must occupy
// distinct cache entries, never serving one simulation for the other.
func TestPerturbedRunsNeverShareCacheEntry(t *testing.T) {
	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(SuiteConfig{Parallelism: 1, Cache: cache})
	base := crossoverOpts("original")

	unperturbed := base
	unperturbed.Perturb = nil
	plain, err := s.Run(apps.NameWater, unperturbed)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := s.Run(apps.NameWater, base)
	if err != nil {
		t.Fatal(err)
	}
	ramped := base
	ramped.Perturb = perturb.Ramp()
	ramp, err := s.Run(apps.NameWater, ramped)
	if err != nil {
		t.Fatal(err)
	}

	st := cache.Stats()
	if st.Misses != 3 || st.Puts != 3 {
		t.Errorf("expected three distinct cache entries, got stats %+v", st)
	}
	if plain.Time == perturbed.Time {
		t.Error("perturbed run reported the unperturbed virtual time; stale cache entry?")
	}
	if perturbed.Time == ramp.Time {
		t.Error("two different schedules reported the same virtual time")
	}

	// A fresh suite over the same cache must hit all three entries and
	// return each schedule's own result.
	s2 := NewSuite(SuiteConfig{Parallelism: 1, Cache: cache})
	again, err := s2.Run(apps.NameWater, base)
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != perturbed.Time {
		t.Errorf("warm hit returned %v, want the perturbed run's %v", again.Time, perturbed.Time)
	}
}
