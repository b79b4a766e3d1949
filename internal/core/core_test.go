package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func threePolicies() []PolicyInfo {
	return []PolicyInfo{
		{Name: "Original", Cutoff: CutoffLocking},
		{Name: "Bounded"},
		{Name: "Aggressive", Cutoff: CutoffWaiting},
	}
}

func meas(lock, wait, exec Nanos) Measurement {
	return Measurement{LockTime: lock, WaitTime: wait, ExecTime: exec, Acquires: 1}
}

func TestMeasurementOverheads(t *testing.T) {
	m := meas(100, 300, 1000)
	if got := m.LockingOverhead(); got != 0.1 {
		t.Errorf("LockingOverhead = %v, want 0.1", got)
	}
	if got := m.WaitingOverhead(); got != 0.3 {
		t.Errorf("WaitingOverhead = %v, want 0.3", got)
	}
	if got := m.Overhead(); got != 0.4 {
		t.Errorf("Overhead = %v, want 0.4", got)
	}
}

func TestOverheadClamped(t *testing.T) {
	// Overhead is always between zero and one (§4.3).
	if got := meas(500, 600, 1000).Overhead(); got != 1 {
		t.Errorf("Overhead = %v, want 1 (clamped)", got)
	}
	if got := meas(0, 0, 0).Overhead(); got != 0 {
		t.Errorf("Overhead with zero ExecTime = %v, want 0", got)
	}
	if got := (Measurement{LockTime: -5, ExecTime: 100}).Overhead(); got != 0 {
		t.Errorf("negative overhead = %v, want clamp to 0", got)
	}
}

func TestQuickOverheadBounds(t *testing.T) {
	f := func(lock, wait, exec int32) bool {
		m := Measurement{LockTime: Nanos(lock), WaitTime: Nanos(wait), ExecTime: Nanos(exec)}
		o := m.Overhead()
		return o >= 0 && o <= 1 && !math.IsNaN(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// kinds are the controller kinds; tests of the phase machine the kinds
// share run once under each.
var kinds = []string{KindRoundRobin, KindUCB}

// forKinds runs f as one subtest per controller kind.
func forKinds(t *testing.T, f func(t *testing.T, kind string)) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) { f(t, kind) })
	}
}

// newCtl returns a controller of the given kind; the configuration must be
// valid.
func newCtl(t testing.TB, kind string, cfg Config) *Controller {
	t.Helper()
	c, err := NewCtl(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewCtl(KindRoundRobin, Config{}); err == nil {
		t.Error("NewCtl with no policies: want error")
	}
	if _, err := NewCtl("thompson", Config{Policies: threePolicies()}); err == nil {
		t.Error("NewCtl with an unknown kind: want error")
	}
	c := newCtl(t, "", Config{Policies: threePolicies()})
	if c.Config().TargetSampling != DefaultTargetSampling {
		t.Errorf("TargetSampling default = %v", c.Config().TargetSampling)
	}
	if c.Config().TargetProduction != DefaultTargetProduction {
		t.Errorf("TargetProduction default = %v", c.Config().TargetProduction)
	}
	if c.Phase() != Idle {
		t.Errorf("initial phase = %v, want idle", c.Phase())
	}
}

// drive runs the controller through a full section execution in which every
// policy exhibits the given fixed overheads, and returns the production
// policy chosen.
func drive(t *testing.T, c *Controller, overheads []float64) int {
	t.Helper()
	now := Nanos(0)
	c.BeginExecution(now)
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		now += c.Config().TargetSampling
		exec := Nanos(1e9)
		lock := Nanos(overheads[p] * 1e9)
		c.CompletePhase(now, meas(lock, 0, exec))
	}
	if c.Phase() != Production {
		t.Fatalf("phase after sampling = %v, want production", c.Phase())
	}
	return c.CurrentPolicy()
}

func TestSamplesAllPoliciesThenPicksBest(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{Policies: threePolicies()})
	got := drive(t, c, []float64{0.5, 0.2, 0.7})
	if got != 1 {
		t.Errorf("production policy = %d (%s), want 1 (Bounded)", got, c.PolicyName(got))
	}
	// All three must have been sampled, in declaration order.
	samples := c.Samples()
	if len(samples) != 3 {
		t.Fatalf("len(samples) = %d, want 3", len(samples))
	}
	for i, s := range samples {
		if s.Kind != SampleSampling || s.Policy != i {
			t.Errorf("sample %d = kind %v policy %d", i, s.Kind, s.Policy)
		}
	}
}

func TestTieBreaksToEarlierSampled(t *testing.T) {
	// The worst case in §5 is multiple policies with the same lowest
	// overhead; the algorithm arbitrarily (here: deterministically) selects
	// one of them.
	c := newCtl(t, KindRoundRobin, Config{Policies: threePolicies()})
	got := drive(t, c, []float64{0.3, 0.3, 0.3})
	if got != 0 {
		t.Errorf("tie production policy = %d, want 0 (first sampled)", got)
	}
}

func TestExpired(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := newCtl(t, kind, Config{Policies: threePolicies(), TargetSampling: 100, TargetProduction: 1000})
		if c.Expired(1e9) {
			t.Error("Expired while idle = true")
		}
		c.BeginExecution(50)
		if c.Expired(149) {
			t.Error("Expired before target")
		}
		if !c.Expired(150) {
			t.Error("not Expired at target")
		}
		c.CompletePhase(150, meas(1, 0, 100))
		c.CompletePhase(250, meas(1, 0, 100))
		c.CompletePhase(350, meas(1, 0, 100))
		if c.Phase() != Production {
			t.Fatalf("phase = %v", c.Phase())
		}
		if c.Expired(1349) {
			t.Error("production Expired early")
		}
		if !c.Expired(1350) {
			t.Error("production not Expired at target")
		}
	})
}

func TestResamplingAfterProduction(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{Policies: threePolicies(), TargetSampling: 100, TargetProduction: 1000})
	now := Nanos(0)
	c.BeginExecution(now)
	// Round 1: policy 2 is best.
	over := []float64{0.5, 0.4, 0.1}
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		now += 100
		c.CompletePhase(now, meas(Nanos(over[p]*1000), 0, 1000))
	}
	if c.CurrentPolicy() != 2 {
		t.Fatalf("round 1 winner = %d, want 2", c.CurrentPolicy())
	}
	// Production completes; the environment changed: now policy 0 is best.
	now += 1000
	c.CompletePhase(now, meas(100, 0, 1000))
	if c.Phase() != Sampling {
		t.Fatalf("after production phase = %v, want sampling", c.Phase())
	}
	over = []float64{0.05, 0.4, 0.6}
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		now += 100
		c.CompletePhase(now, meas(Nanos(over[p]*1000), 0, 1000))
	}
	if c.CurrentPolicy() != 0 {
		t.Errorf("round 2 winner = %d, want 0 (adapted)", c.CurrentPolicy())
	}
	if c.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", c.Rounds())
	}
}

func TestEarlyCutoffWaiting(t *testing.T) {
	// Aggressive sampled first (by ordering) with negligible waiting
	// overhead: no other policy need be sampled (§4.5).
	policies := []PolicyInfo{
		{Name: "Aggressive", Cutoff: CutoffWaiting},
		{Name: "Bounded"},
		{Name: "Original", Cutoff: CutoffLocking},
	}
	c := newCtl(t, KindRoundRobin, Config{Policies: policies, EarlyCutoff: true, TargetSampling: 100})
	c.BeginExecution(0)
	if c.CurrentPolicy() != 0 {
		t.Fatalf("first sampled = %d, want 0", c.CurrentPolicy())
	}
	// Tiny waiting overhead, some locking overhead.
	c.CompletePhase(100, meas(50, 1, 10000))
	if c.Phase() != Production {
		t.Fatalf("phase = %v, want production after cutoff", c.Phase())
	}
	if c.CurrentPolicy() != 0 {
		t.Errorf("production policy = %d, want 0", c.CurrentPolicy())
	}
	if n := len(c.Samples()); n != 1 {
		t.Errorf("samples = %d, want 1 (cut off)", n)
	}
}

func TestEarlyCutoffNotTriggeredWhenComponentHigh(t *testing.T) {
	policies := []PolicyInfo{
		{Name: "Aggressive", Cutoff: CutoffWaiting},
		{Name: "Original", Cutoff: CutoffLocking},
	}
	c := newCtl(t, KindRoundRobin, Config{Policies: policies, EarlyCutoff: true, TargetSampling: 100})
	c.BeginExecution(0)
	// Substantial waiting overhead: must keep sampling.
	c.CompletePhase(100, meas(0, 5000, 10000))
	if c.Phase() != Sampling || c.CurrentPolicy() != 1 {
		t.Errorf("phase = %v policy = %d, want sampling policy 1", c.Phase(), c.CurrentPolicy())
	}
}

func TestOrderByHistory(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies: threePolicies(), OrderByHistory: true,
		TargetSampling: 100, TargetProduction: 1000,
	})
	now := Nanos(0)
	c.BeginExecution(now)
	over := []float64{0.5, 0.4, 0.1}
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		now += 100
		c.CompletePhase(now, meas(Nanos(over[p]*1000), 0, 1000))
	}
	if c.CurrentPolicy() != 2 {
		t.Fatalf("winner = %d, want 2", c.CurrentPolicy())
	}
	now += 1000
	c.CompletePhase(now, meas(100, 0, 1000)) // production done; resample
	// New round must sample the previous winner first.
	if c.Phase() != Sampling || c.CurrentPolicy() != 2 {
		t.Fatalf("resample starts with policy %d, want 2", c.CurrentPolicy())
	}
	// Still acceptable: go straight to production, skipping the others.
	now += 100
	c.CompletePhase(now, meas(Nanos(0.12*1000), 0, 1000))
	if c.Phase() != Production || c.CurrentPolicy() != 2 {
		t.Errorf("phase = %v policy = %d, want production 2", c.Phase(), c.CurrentPolicy())
	}
}

func TestOrderByHistoryDegraded(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies: threePolicies(), OrderByHistory: true,
		TargetSampling: 100, TargetProduction: 1000,
	})
	now := Nanos(0)
	c.BeginExecution(now)
	over := []float64{0.5, 0.4, 0.1}
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		now += 100
		c.CompletePhase(now, meas(Nanos(over[p]*1000), 0, 1000))
	}
	now += 1000
	c.CompletePhase(now, meas(100, 0, 1000))
	// The previous winner degraded badly: the full round must proceed.
	now += 100
	c.CompletePhase(now, meas(800, 0, 1000)) // policy 2 now at 0.8
	if c.Phase() != Sampling {
		t.Fatalf("phase = %v, want sampling to continue", c.Phase())
	}
	over = []float64{0.5, 0.4, 0.8}
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		now += 100
		c.CompletePhase(now, meas(Nanos(over[p]*1000), 0, 1000))
	}
	if c.CurrentPolicy() != 1 {
		t.Errorf("adapted winner = %d, want 1", c.CurrentPolicy())
	}
}

func TestEndExecutionDefaultModeResamples(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		// Default mode: every section execution starts with a sampling phase
		// (§4.4), and a cut-short phase is recorded as partial.
		c := newCtl(t, kind, Config{Policies: threePolicies(), TargetSampling: 100})
		c.BeginExecution(0)
		c.CompletePhase(100, meas(10, 0, 1000))
		c.EndExecution(150, meas(5, 0, 500))
		if c.Phase() != Idle {
			t.Fatalf("phase = %v, want idle", c.Phase())
		}
		n := len(c.Samples())
		if n != 2 || c.Samples()[1].Kind != SamplePartial {
			t.Fatalf("samples = %+v", c.Samples())
		}
		c.BeginExecution(200)
		// Round-robin restarts at the first policy; the bandit opens with the
		// one policy it has no evidence on at all.
		want := map[string]int{KindRoundRobin: 0, KindUCB: 2}[kind]
		if c.Phase() != Sampling || c.CurrentPolicy() != want {
			t.Errorf("new execution: phase %v policy %d, want sampling %d", c.Phase(), c.CurrentPolicy(), want)
		}
	})
}

func TestSpanExecutions(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		// With the §4.4 extension, a phase continues across executions and the
		// idle gap between executions does not count toward the interval.
		c := newCtl(t, kind, Config{
			Policies: threePolicies(), TargetSampling: 100, SpanExecutions: true,
		})
		c.BeginExecution(0)
		c.EndExecution(60, meas(6, 0, 600)) // 60 elapsed in-phase
		c.BeginExecution(1000)              // long idle gap
		if c.Phase() != Sampling || c.CurrentPolicy() != 0 {
			t.Fatalf("resume: phase %v policy %d", c.Phase(), c.CurrentPolicy())
		}
		if c.Expired(1030) {
			t.Error("expired at 90 elapsed, want not expired")
		}
		if !c.Expired(1040) {
			t.Error("not expired at 100 elapsed")
		}
		c.CompletePhase(1040, meas(4, 0, 400))
		s := c.Samples()
		if len(s) != 1 {
			t.Fatalf("samples = %d, want 1", len(s))
		}
		// The accumulated measurement must combine both segments.
		if s[0].Meas.ExecTime != 1000 || s[0].Meas.LockTime != 10 {
			t.Errorf("accumulated meas = %+v", s[0].Meas)
		}
		if c.CurrentPolicy() != 1 {
			t.Errorf("next sampled = %d, want 1", c.CurrentPolicy())
		}
	})
}

func TestPolicyStats(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{Policies: threePolicies(), TargetSampling: 100})
	drive(t, c, []float64{0.5, 0.2, 0.7})
	st := c.Stats()
	if st[1].TimesChosen != 1 || st[0].TimesChosen != 0 {
		t.Errorf("TimesChosen = %d/%d", st[0].TimesChosen, st[1].TimesChosen)
	}
	for i, s := range st {
		if s.TimesSampled != 1 {
			t.Errorf("policy %d TimesSampled = %d, want 1", i, s.TimesSampled)
		}
	}
	if st[1].MeanOverhead() <= 0.19 || st[1].MeanOverhead() >= 0.21 {
		t.Errorf("MeanOverhead = %v, want ≈0.2", st[1].MeanOverhead())
	}
	if (PolicyStats{}).MeanOverhead() != 0 {
		t.Error("zero-stats MeanOverhead != 0")
	}
}

func TestBestKnownPolicy(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{Policies: threePolicies(), TargetSampling: 100})
	if c.BestKnownPolicy() != 0 {
		t.Errorf("fresh BestKnownPolicy = %d, want 0", c.BestKnownPolicy())
	}
	c.BeginExecution(0)
	c.CompletePhase(100, meas(900, 0, 1000)) // policy 0: 0.9
	c.CompletePhase(200, meas(100, 0, 1000)) // policy 1: 0.1
	if c.BestKnownPolicy() != 1 {
		t.Errorf("BestKnownPolicy = %d, want 1", c.BestKnownPolicy())
	}
}

func TestCompletePhaseWhileIdlePanics(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		c := newCtl(t, kind, Config{Policies: threePolicies()})
		defer func() {
			if recover() == nil {
				t.Error("CompletePhase while idle did not panic")
			}
		}()
		c.CompletePhase(0, Measurement{})
	})
}

// TestQuickControllerPicksMin: for random overhead vectors, the controller
// must always choose an argmin policy for production.
func TestQuickControllerPicksMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 1
		policies := make([]PolicyInfo, n)
		over := make([]float64, n)
		for i := range policies {
			policies[i] = PolicyInfo{Name: string(rune('A' + i))}
			over[i] = float64(rng.Intn(1000)) / 1000
		}
		c := newCtl(t, KindRoundRobin, Config{Policies: policies, TargetSampling: 100})
		now := Nanos(0)
		c.BeginExecution(now)
		for c.Phase() == Sampling {
			p := c.CurrentPolicy()
			now += 100
			c.CompletePhase(now, meas(Nanos(over[p]*1e6), 0, 1e6))
		}
		chosen := c.CurrentPolicy()
		for _, o := range over {
			if o < over[chosen]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSampleSpansContiguous: sample records from a continuous drive
// must tile the timeline without gaps or overlaps.
func TestQuickSampleSpansContiguous(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtl(t, KindRoundRobin, Config{Policies: threePolicies(), TargetSampling: 100, TargetProduction: 500})
		now := Nanos(0)
		c.BeginExecution(now)
		for i := 0; i < 40; i++ {
			now += c.TargetInterval() + Nanos(rng.Intn(20))
			c.CompletePhase(now, meas(Nanos(rng.Intn(100)), Nanos(rng.Intn(100)), 1000))
		}
		prevEnd := Nanos(0)
		for _, s := range c.Samples() {
			if s.Start != prevEnd || s.End < s.Start {
				return false
			}
			prevEnd = s.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
