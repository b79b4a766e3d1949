package core

import (
	"math"
	"testing"
)

// seedController returns an OrderByHistory controller over three policies
// with 10ms sampling intervals.
func seedController(t *testing.T, kind string) *Controller {
	t.Helper()
	return newCtl(t, kind, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
		OrderByHistory:   true,
	})
}

func TestSeedHistoryValidation(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		if err := c.SeedHistory(Seed{Winner: -1}); err == nil {
			t.Error("negative winner accepted")
		}
		if err := c.SeedHistory(Seed{Winner: 3}); err == nil {
			t.Error("out-of-range winner accepted")
		}
		if err := c.SeedHistory(Seed{Winner: 0, WinnerOverhead: -0.1}); err == nil {
			t.Error("negative overhead accepted")
		}
		if err := c.SeedHistory(Seed{Winner: 0, WinnerOverhead: 1.5}); err == nil {
			t.Error("overhead above 1 accepted")
		}
		if err := c.SeedHistory(Seed{Winner: 0, WinnerOverhead: math.NaN()}); err == nil {
			t.Error("NaN overhead accepted")
		}
		if err := c.SeedHistory(Seed{Winner: 0, Stats: make([]PolicyStats, 2)}); err == nil {
			t.Error("mis-sized stats accepted")
		}
		c.BeginExecution(0)
		if err := c.SeedHistory(Seed{Winner: 0}); err == nil {
			t.Error("seeding a running controller accepted")
		}
	})
}

func TestSeedHistorySkipsSampling(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		if err := c.SeedHistory(Seed{Winner: 2, WinnerOverhead: 0.1}); err != nil {
			t.Fatal(err)
		}
		c.BeginExecution(0)
		if got := c.CurrentPolicy(); got != 2 {
			t.Fatalf("first sampled policy = %d, want seeded winner 2", got)
		}
		// The winner still measures close to its seeded overhead: the rest of
		// the round must be skipped — production after a single interval.
		c.CompletePhase(Nanos(10e6), meas(Nanos(0.1e9), 0, 1e9))
		if c.Phase() != Production {
			t.Fatalf("phase = %v, want production after one seeded sample", c.Phase())
		}
		if got := c.CurrentPolicy(); got != 2 {
			t.Errorf("production policy = %d, want 2", got)
		}
		sampling := 0
		for _, s := range c.Samples() {
			if s.Kind == SampleSampling {
				sampling++
			}
		}
		if sampling != 1 {
			t.Errorf("sampling intervals before production = %d, want 1", sampling)
		}
	})
}

func TestSeedHistoryDegradedFallsBackToFullSampling(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		if err := c.SeedHistory(Seed{Winner: 2, WinnerOverhead: 0.05}); err != nil {
			t.Fatal(err)
		}
		c.BeginExecution(0)
		// The seeded winner's environment has drifted: it now measures far
		// above its recorded overhead, so the acceptability test fails and the
		// remaining policies must be sampled.
		now := Nanos(10e6)
		c.CompletePhase(now, meas(Nanos(0.6e9), 0, 1e9)) // policy 2: degraded to 0.6
		if c.Phase() != Sampling {
			t.Fatalf("phase = %v, want continued sampling after degraded winner", c.Phase())
		}
		overheads := map[int]Nanos{0: Nanos(0.2e9), 1: Nanos(0.4e9)}
		for c.Phase() == Sampling {
			now += Nanos(10e6)
			c.CompletePhase(now, meas(overheads[c.CurrentPolicy()], 0, 1e9))
		}
		if got := c.CurrentPolicy(); got != 0 {
			t.Errorf("production policy = %d, want freshly-measured best 0", got)
		}
	})
}

func TestLateSeedIdleDelegatesToSeedHistory(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		if err := c.LateSeed(Seed{Winner: 2, WinnerOverhead: 0.1}); err != nil {
			t.Fatal(err)
		}
		c.BeginExecution(0)
		if got := c.CurrentPolicy(); got != 2 {
			t.Fatalf("first sampled policy = %d, want seeded winner 2", got)
		}
		c.CompletePhase(Nanos(10e6), meas(Nanos(0.1e9), 0, 1e9))
		if c.Phase() != Production {
			t.Errorf("phase = %v, want production after one seeded sample", c.Phase())
		}
	})
}

func TestLateSeedMidRoundValidation(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		c.BeginExecution(0) // running, no winner yet: the LateSeed window
		if err := c.LateSeed(Seed{Winner: 3}); err == nil {
			t.Error("out-of-range winner accepted")
		}
		if err := c.LateSeed(Seed{Winner: 0, WinnerOverhead: math.NaN()}); err == nil {
			t.Error("NaN overhead accepted")
		}
		if err := c.LateSeed(Seed{Winner: 0, WinnerOverhead: 2}); err == nil {
			t.Error("overhead above 1 accepted")
		}
		if err := c.LateSeed(Seed{Winner: 0, Stats: make([]PolicyStats, 1)}); err == nil {
			t.Error("mis-sized stats accepted")
		}
		if err := c.LateSeed(Seed{Winner: 2, WinnerOverhead: 0.1}); err != nil {
			t.Fatalf("valid mid-round seed rejected: %v", err)
		}
		if w, ok := c.LastWinner(); !ok || w != 2 {
			t.Errorf("LastWinner = %d,%v want 2,true", w, ok)
		}
		if err := c.LateSeed(Seed{Winner: 1}); err == nil {
			t.Error("seeding a controller that already has a winner accepted")
		}
	})
}

func TestLateSeedStatsFillOnlyUnsampledPolicies(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		c.BeginExecution(0)
		// Policy 0 has a live measurement before the seed arrives.
		c.CompletePhase(Nanos(10e6), meas(Nanos(0.2e9), 0, 1e9))
		stats := []PolicyStats{
			{TimesSampled: 9, LastOverhead: 0.9, TotalOverhead: 8.1},
			{TimesSampled: 5, TimesChosen: 1, LastOverhead: 0.4, TotalOverhead: 2.0},
			{TimesSampled: 5, TimesChosen: 4, LastOverhead: 0.1, TotalOverhead: 0.5},
		}
		if err := c.LateSeed(Seed{Winner: 2, WinnerOverhead: 0.1, Stats: stats}); err != nil {
			t.Fatal(err)
		}
		got := c.Stats()
		if got[0].TimesSampled != 1 || got[0].LastOverhead != 0.2 {
			t.Errorf("live measurement overwritten by seed: %+v", got[0])
		}
		if got[1].TimesSampled != 5 || got[2].TimesChosen != 4 {
			t.Errorf("unsampled policies not filled from seed: %+v", got[1:])
		}
	})
}

// TestLateSeedDoesNotOverrideMeasuredRound: a seed that arrives while a
// round is in flight must not beat the round's own fresh measurements —
// production goes to the measured best, not blindly to the seeded winner.
func TestLateSeedDoesNotOverrideMeasuredRound(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		c.BeginExecution(0)
		now := Nanos(10e6)
		c.CompletePhase(now, meas(Nanos(0.2e9), 0, 1e9)) // policy 0: 0.2, the best
		if err := c.LateSeed(Seed{Winner: 2, WinnerOverhead: 0.01}); err != nil {
			t.Fatal(err)
		}
		overheads := map[int]Nanos{1: Nanos(0.4e9), 2: Nanos(0.3e9)}
		for c.Phase() == Sampling {
			now += Nanos(10e6)
			c.CompletePhase(now, meas(overheads[c.CurrentPolicy()], 0, 1e9))
		}
		if got := c.CurrentPolicy(); got != 0 {
			t.Errorf("production policy = %d, want measured best 0 over seeded 2", got)
		}
	})
}

func TestSeedHistoryRestoresStats(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := seedController(t, kind)
		stats := []PolicyStats{
			{TimesSampled: 4, TimesChosen: 0, LastOverhead: 0.5, TotalOverhead: 2.0},
			{TimesSampled: 4, TimesChosen: 0, LastOverhead: 0.3, TotalOverhead: 1.2},
			{TimesSampled: 4, TimesChosen: 4, LastOverhead: 0.1, TotalOverhead: 0.4},
		}
		if err := c.SeedHistory(Seed{Winner: 2, WinnerOverhead: 0.1, Stats: stats}); err != nil {
			t.Fatal(err)
		}
		got := c.Stats()
		if got[2].TimesChosen != 4 || got[0].MeanOverhead() != 0.5 {
			t.Errorf("seeded stats not restored: %+v", got)
		}
		if w, ok := c.LastWinner(); !ok || w != 2 {
			t.Errorf("LastWinner = %d,%v want 2,true", w, ok)
		}
		if o := c.LastWinnerOverhead(); o != 0.1 {
			t.Errorf("LastWinnerOverhead = %v, want 0.1", o)
		}
	})
}
