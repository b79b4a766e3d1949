package core

import (
	"testing"
)

// The recommend path (EstimateDecayRate → RecommendProduction) must
// degrade gracefully on thin histories: no estimate is better than a
// fabricated one, and callers fall back to the configured interval.

func TestRecommendPathEmptyHistory(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	if _, ok := c.EstimateDecayRate(); ok {
		t.Error("decay estimate from an empty history")
	}
	if _, ok := c.MeanEffectiveSampling(); ok {
		t.Error("mean sampling interval from an empty history")
	}
	if _, ok := c.RecommendProduction(); ok {
		t.Error("production recommendation from an empty history")
	}
}

func TestRecommendPathSingleSample(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	c.BeginExecution(0)
	c.CompletePhase(Nanos(10e6), meas(Nanos(0.1e9), 0, 1e9))
	// One completed interval gives a mean sampling length but no drift
	// information: the rate needs two samples of the same policy.
	if _, ok := c.MeanEffectiveSampling(); !ok {
		t.Error("no mean after one completed sampling interval")
	}
	if _, ok := c.EstimateDecayRate(); ok {
		t.Error("decay estimate from a single sample")
	}
	if _, ok := c.RecommendProduction(); ok {
		t.Error("recommendation from a single sample")
	}
}

func TestRecommendPathOneSamplePerPolicy(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	// A full first round: every policy sampled exactly once. Still no
	// pair of same-policy samples, so still no estimate.
	c.BeginExecution(0)
	now := Nanos(0)
	for c.Phase() == Sampling {
		now += Nanos(10e6)
		c.CompletePhase(now, meas(Nanos(0.2e9), 0, 1e9))
	}
	if _, ok := c.EstimateDecayRate(); ok {
		t.Error("decay estimate with one sample per policy")
	}
	if _, ok := c.RecommendProduction(); ok {
		t.Error("recommendation with one sample per policy")
	}
}

func TestRecommendPathPartialSamplesCarryNoDrift(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	// Two executions, each cut short mid-sampling: the history holds only
	// partial records, which the estimator must ignore.
	for i := 0; i < 2; i++ {
		c.BeginExecution(Nanos(int64(i) * 20e6))
		c.EndExecution(Nanos(int64(i)*20e6+5e6), meas(Nanos(0.1e9), 0, 1e9))
	}
	if _, ok := c.EstimateDecayRate(); ok {
		t.Error("decay estimate from partial samples only")
	}
	if _, ok := c.RecommendProduction(); ok {
		t.Error("recommendation from partial samples only")
	}
}

func TestRecommendProductionNonDecaying(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	// Perfectly stable overheads: λ estimates to ~0 and is floored at
	// minLambda, so the recommendation is finite and hits the cap instead
	// of diverging to an infinite production interval.
	driveSamples(c, 5, func(p int, now Nanos) float64 {
		return []float64{0.25, 0.15, 0.05}[p]
	})
	rate, ok := c.EstimateDecayRate()
	if !ok {
		t.Fatal("no estimate for a non-decaying history")
	}
	if rate != minLambda {
		t.Errorf("non-decaying rate = %v, want the floor %v", rate, minLambda)
	}
	rec, ok := c.RecommendProduction()
	if !ok {
		t.Fatal("no recommendation for a non-decaying history")
	}
	// With the floored λ, eq. 9 gives a long but finite interval: far
	// above the sampling interval (resampling a stable environment is
	// nearly free to postpone) yet within the cap.
	if rec < 1000*c.Config().TargetSampling {
		t.Errorf("non-decaying recommendation = %v, want ≫ sampling interval %v", rec, c.Config().TargetSampling)
	}
	if rec > maxRecommendedProduction {
		t.Errorf("non-decaying recommendation = %v exceeds the cap %v", rec, maxRecommendedProduction)
	}
}
