package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// manyPolicies returns n generated-space-sized policy slots, the regime
// the bandit controller exists for.
func manyPolicies(n int) []PolicyInfo {
	out := make([]PolicyInfo, n)
	for i := range out {
		out[i] = PolicyInfo{Name: fmt.Sprintf("g%02d", i)}
	}
	return out
}

// driveCtl runs one full sampling phase of a controller with fixed
// per-policy overheads and returns the production policy chosen.
func driveCtl(t *testing.T, c *Controller, now *Nanos, overheads []float64) int {
	t.Helper()
	if c.Phase() == Idle {
		c.BeginExecution(*now)
	}
	for c.Phase() == Sampling {
		p := c.CurrentPolicy()
		*now += c.Config().TargetSampling
		c.CompletePhase(*now, meas(Nanos(overheads[p]*1e9), 0, 1e9))
	}
	if c.Phase() != Production {
		t.Fatalf("phase after sampling = %v, want production", c.Phase())
	}
	return c.CurrentPolicy()
}

// finishProduction completes the pending production interval, rolling the
// controller into its next sampling round.
func finishProduction(t *testing.T, c *Controller, now *Nanos, overhead float64) {
	t.Helper()
	if c.Phase() != Production {
		t.Fatalf("phase = %v, want production", c.Phase())
	}
	*now += c.Config().TargetProduction
	c.CompletePhase(*now, meas(Nanos(overhead*100e9), 0, 100e9))
}

// sampledThisRound counts the sampling intervals since the last production
// sample.
func sampledThisRound(c *Controller) int {
	samples := c.Samples()
	n := 0
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i].Kind != SampleSampling {
			break
		}
		n++
	}
	return n
}

func TestUCBFirstRoundSamplesEveryPolicy(t *testing.T) {
	// With no history every arm's confidence bound is vacuous, so the
	// first round must degenerate to round-robin: all 12 policies sampled,
	// lowest overhead chosen.
	over := []float64{0.5, 0.2, 0.7, 0.6, 0.55, 0.4, 0.8, 0.9, 0.3, 0.65, 0.45, 0.35}
	c := newCtl(t, KindUCB, Config{Policies: manyPolicies(12)})
	now := Nanos(0)
	got := driveCtl(t, c, &now, over)
	if got != 1 {
		t.Errorf("production policy = %d, want 1 (lowest overhead)", got)
	}
	if n := sampledThisRound(c); n != 12 {
		t.Errorf("first round sampled %d intervals, want 12", n)
	}
}

func TestUCBSecondRoundEliminatesClearLosers(t *testing.T) {
	// After one full round the winner is far below everything else, so the
	// second round should stop after sampling the incumbent: every other
	// arm's lower confidence bound sits above the measured best.
	over := make([]float64, 12)
	for i := range over {
		over[i] = 0.6
	}
	over[3] = 0.1
	c := newCtl(t, KindUCB, Config{Policies: manyPolicies(12)})
	now := Nanos(0)
	driveCtl(t, c, &now, over)
	finishProduction(t, c, &now, over[3])
	got := driveCtl(t, c, &now, over)
	if got != 3 {
		t.Errorf("round 2 production policy = %d, want 3", got)
	}
	n := sampledThisRound(c)
	if n >= 12 {
		t.Fatalf("round 2 sampled %d intervals, want fewer than the round-robin 12", n)
	}
	if n != 1 {
		t.Errorf("round 2 sampled %d intervals, want 1 (all other arms eliminated)", n)
	}
	if first := c.Samples()[len(c.Samples())-1].Policy; first != 3 {
		t.Errorf("round 2 sampled policy %d first, want the incumbent 3 (§4.5 ordering)", first)
	}
}

func TestUCBKeepsNearTiesInRotation(t *testing.T) {
	// Arms within the confidence width of the best stay in rotation; only
	// clear losers are skipped. 3 contenders + 9 losers → rounds after the
	// first should sample the contenders but not all 12.
	over := make([]float64, 12)
	for i := range over {
		over[i] = 0.7
	}
	over[2], over[5], over[8] = 0.10, 0.13, 0.16
	c := newCtl(t, KindUCB, Config{Policies: manyPolicies(12)})
	now := Nanos(0)
	driveCtl(t, c, &now, over)
	finishProduction(t, c, &now, over[2])
	driveCtl(t, c, &now, over)
	n := sampledThisRound(c)
	if n < 2 || n >= 12 {
		t.Errorf("round 2 sampled %d intervals, want the contenders only (2..11)", n)
	}
}

func TestUCBNeverMorePullsPerRoundThanRoundRobin(t *testing.T) {
	// Each arm is pulled at most once per round, so no round ever samples
	// more intervals than the round-robin controller's N.
	over := []float64{0.5, 0.2, 0.7, 0.6, 0.55, 0.4, 0.8, 0.9, 0.3, 0.65, 0.45, 0.35, 0.25, 0.15}
	c := newCtl(t, KindUCB, Config{Policies: manyPolicies(len(over))})
	now := Nanos(0)
	for round := 0; round < 6; round++ {
		driveCtl(t, c, &now, over)
		if n := sampledThisRound(c); n > len(over) {
			t.Fatalf("round %d sampled %d intervals, want <= %d", round, n, len(over))
		}
		finishProduction(t, c, &now, 0.2)
	}
}

func TestUCBIncumbentHysteresis(t *testing.T) {
	// A challenger inside historyMargin of the incumbent does not steal
	// production (no churn on noise); one clearly better does.
	over := make([]float64, 10)
	for i := range over {
		over[i] = 0.6
	}
	over[4] = 0.30
	c := newCtl(t, KindUCB, Config{Policies: manyPolicies(10)})
	now := Nanos(0)
	if got := driveCtl(t, c, &now, over); got != 4 {
		t.Fatalf("round 1 winner = %d, want 4", got)
	}
	finishProduction(t, c, &now, 0.30)
	// Policy 7 improves to within the margin: incumbent keeps the slot.
	over[7] = 0.27
	if got := driveCtl(t, c, &now, over); got != 4 {
		t.Errorf("near-tie challenger took production: got %d, want incumbent 4", got)
	}
	finishProduction(t, c, &now, 0.30)
	// Policy 7 improves decisively. The bandit eliminated it on stale
	// evidence, so the switch is not instant — the per-round decay widens
	// its bound until it is re-examined — but it must land within a
	// bounded number of rounds.
	over[7] = 0.05
	switched := -1
	for round := 0; round < 8; round++ {
		if got := driveCtl(t, c, &now, over); got == 7 {
			switched = round
			break
		}
		finishProduction(t, c, &now, 0.30)
	}
	if switched < 0 {
		t.Error("clear challenger never retook production within 8 rounds")
	}
}

func TestUCBEarlyCutoffAtLargeVersionCount(t *testing.T) {
	// §4.5 early cut-off applies to the bandit unchanged: a first-sampled
	// policy with negligible locking overhead ends sampling immediately,
	// even with 12 versions waiting.
	policies := manyPolicies(12)
	policies[0].Cutoff = CutoffLocking
	c := newCtl(t, KindUCB, Config{Policies: policies, EarlyCutoff: true})
	now := Nanos(0)
	c.BeginExecution(now)
	now += c.Config().TargetSampling
	c.CompletePhase(now, meas(0, 0, 1e9))
	if c.Phase() != Production || c.CurrentPolicy() != 0 {
		t.Errorf("after cutoff: phase %v policy %d, want production on 0", c.Phase(), c.CurrentPolicy())
	}
	if n := sampledThisRound(c); n != 1 {
		t.Errorf("sampled %d intervals before cutoff, want 1", n)
	}
}

func TestRoundRobinOrderingAtLargeVersionCount(t *testing.T) {
	// The paper's controller keeps its declaration-order guarantee at
	// generated-space sizes: 14 versions sampled 0..13, argmin chosen.
	over := make([]float64, 14)
	for i := range over {
		over[i] = 0.2 + 0.05*float64(i)
	}
	over[11] = 0.05
	c := newCtl(t, KindRoundRobin, Config{Policies: manyPolicies(14)})
	now := Nanos(0)
	got := driveCtl(t, c, &now, over)
	if got != 11 {
		t.Errorf("production policy = %d, want 11", got)
	}
	samples := c.Samples()
	if len(samples) != 14 {
		t.Fatalf("len(samples) = %d, want 14", len(samples))
	}
	for i, s := range samples {
		if s.Policy != i {
			t.Errorf("sample %d ran policy %d, want declaration order", i, s.Policy)
		}
	}
}

// traceOf drives a controller deterministically for rounds rounds and
// returns its full sample and switch traces.
func traceOf(t *testing.T, kind string, seed *Seed, rounds int) ([]Sample, []Switch) {
	t.Helper()
	over := []float64{0.5, 0.2, 0.7, 0.6, 0.55, 0.4, 0.8, 0.9, 0.3, 0.65, 0.45, 0.35}
	c := newCtl(t, kind, Config{Policies: manyPolicies(len(over))})
	if seed != nil {
		if err := c.Seed(*seed); err != nil {
			t.Fatal(err)
		}
	}
	now := Nanos(0)
	for r := 0; r < rounds; r++ {
		driveCtl(t, c, &now, over)
		finishProduction(t, c, &now, over[c.CurrentPolicy()])
	}
	return c.Samples(), c.Switches()
}

func TestControllersDeterministicUnderFixedSeeds(t *testing.T) {
	// Identical configuration, seed, and measurement schedule must produce
	// byte-identical traces from both controllers — the property the
	// content-addressed simulation cache keys on.
	seed := &Seed{Winner: 1, WinnerOverhead: 0.2, Stats: func() []PolicyStats {
		st := make([]PolicyStats, 12)
		for i := range st {
			st[i] = PolicyStats{TimesSampled: 1, LastOverhead: 0.5, TotalOverhead: 0.5}
		}
		st[1] = PolicyStats{TimesSampled: 2, TimesChosen: 1, LastOverhead: 0.2, TotalOverhead: 0.4}
		return st
	}()}
	for _, kind := range []string{KindRoundRobin, KindUCB} {
		for _, s := range []*Seed{nil, seed} {
			s1, w1 := traceOf(t, kind, s, 4)
			s2, w2 := traceOf(t, kind, s, 4)
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("%s (seeded=%v): sample traces differ across identical runs", kind, s != nil)
			}
			if !reflect.DeepEqual(w1, w2) {
				t.Errorf("%s (seeded=%v): switch traces differ across identical runs", kind, s != nil)
			}
		}
	}
}

func TestUCBSeededHistoryShortensFirstRound(t *testing.T) {
	// A seeded arm history is prior evidence: the first round of a warm
	// restart eliminates known losers without re-measuring them, where
	// round-robin must still sample all 12.
	st := make([]PolicyStats, 12)
	for i := range st {
		st[i] = PolicyStats{TimesSampled: 1, LastOverhead: 0.6, TotalOverhead: 0.6}
	}
	st[3] = PolicyStats{TimesSampled: 1, LastOverhead: 0.1, TotalOverhead: 0.1}
	seed := Seed{Winner: 3, WinnerOverhead: 0.1, Stats: st}
	over := make([]float64, 12)
	for i := range over {
		over[i] = 0.6
	}
	over[3] = 0.1

	ucb := newCtl(t, KindUCB, Config{Policies: manyPolicies(12)})
	if err := ucb.Seed(seed); err != nil {
		t.Fatal(err)
	}
	now := Nanos(0)
	if got := driveCtl(t, ucb, &now, over); got != 3 {
		t.Errorf("seeded ucb chose %d, want 3", got)
	}
	nUCB := sampledThisRound(ucb)

	rr := newCtl(t, KindRoundRobin, Config{Policies: manyPolicies(12)})
	if err := rr.Seed(seed); err != nil {
		t.Fatal(err)
	}
	now = 0
	driveCtl(t, rr, &now, over)
	nRR := sampledThisRound(rr)
	if nUCB >= nRR {
		t.Errorf("seeded ucb sampled %d intervals, round-robin %d; want strictly fewer", nUCB, nRR)
	}
}

func TestUCBSeedTwiceEqualsSeedOnce(t *testing.T) {
	// A seed replaces an arm's statistics, so it must replace — not add to —
	// the arm's share of the total pull count: counting the arm again would
	// leave pulls above Σ armN and widen every confidence bound by
	// √(ln(pulls+1)). Controller.Seed reaches the selector at most once (a
	// seeded controller has a winner), so the selector is seeded directly.
	st := make([]PolicyStats, 12)
	for i := range st {
		st[i] = PolicyStats{TimesSampled: 1 + i%3, LastOverhead: 0.6, TotalOverhead: 0.6 * float64(1+i%3)}
	}
	st[3] = PolicyStats{TimesSampled: 1, LastOverhead: 0.1, TotalOverhead: 0.1}
	st[7] = PolicyStats{} // never sampled: no evidence to seed
	seed := Seed{Winner: 3, WinnerOverhead: 0.1, Stats: st}
	seeded := func(times int) *Controller {
		c := newCtl(t, KindUCB, Config{Policies: manyPolicies(12)})
		for i := 0; i < times; i++ {
			c.sel.seed(st)
		}
		return c
	}
	once, twice := seeded(1), seeded(2)
	if !reflect.DeepEqual(once.sel, twice.sel) {
		t.Errorf("arm statistics after seeding twice = %+v, after seeding once %+v", twice.sel, once.sel)
	}
	// Seeding an idle controller that has arm history of its own keeps the
	// invariant too: the counts it replaces leave the total. Executions
	// that end mid-round leave history but no winner.
	c := newCtl(t, KindUCB, Config{Policies: manyPolicies(12)})
	now := Nanos(0)
	for exec := 0; exec < 3; exec++ {
		c.BeginExecution(now)
		for i := 0; i < 4; i++ {
			now += c.Deadline() - now
			c.CompletePhase(now, meas(Nanos(0.3e9), 0, 1e9))
		}
		c.EndExecution(now+1, meas(Nanos(0.3e9), 0, 1e9))
	}
	if _, won := c.LastWinner(); won {
		t.Fatal("mid-round executions chose a winner")
	}
	if err := c.Seed(seed); err != nil {
		t.Fatal(err)
	}
	u := c.sel.(*ucb)
	sum := 0.0
	for _, n := range u.armN {
		sum += n
	}
	if math.Abs(u.pulls-sum) > 1e-12 {
		t.Errorf("pulls = %v after seeding, want Σ armN = %v", u.pulls, sum)
	}
}
