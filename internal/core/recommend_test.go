package core

import (
	"math"
	"testing"
)

// driveSamples feeds the controller synthetic sampling intervals whose
// overheads follow the given per-policy trajectories.
func driveSamples(c *Controller, rounds int, overheadAt func(policy int, now Nanos) float64) {
	now := Nanos(0)
	c.BeginExecution(now)
	for r := 0; r < rounds; r++ {
		for c.Phase() == Sampling {
			p := c.CurrentPolicy()
			now += c.Config().TargetSampling
			o := overheadAt(p, now)
			exec := Nanos(1e9)
			c.CompletePhase(now, Measurement{LockTime: Nanos(o * 1e9), ExecTime: exec, Acquires: 1})
		}
		now += c.Config().TargetProduction
		c.CompletePhase(now, Measurement{LockTime: 1, ExecTime: 1e9, Acquires: 1})
	}
}

func TestEstimateDecayRateStable(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	if _, ok := c.EstimateDecayRate(); ok {
		t.Error("estimate available with no history")
	}
	driveSamples(c, 4, func(p int, now Nanos) float64 {
		return []float64{0.3, 0.2, 0.1}[p] // constant per policy
	})
	rate, ok := c.EstimateDecayRate()
	if !ok {
		t.Fatal("no estimate after several rounds")
	}
	if rate != minLambda {
		t.Errorf("stable overheads: rate = %v, want floor %v", rate, minLambda)
	}
}

func TestEstimateDecayRateDrifting(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	// Policy 0's useful-work fraction decays at λ=2/s; the others are flat.
	driveSamples(c, 6, func(p int, now Nanos) float64 {
		if p != 0 {
			return 0.2
		}
		tSec := float64(now) / 1e9
		return 1 - 0.8*math.Exp(-2*tSec)
	})
	rate, ok := c.EstimateDecayRate()
	if !ok {
		t.Fatal("no estimate")
	}
	if rate < 1.0 || rate > 4.0 {
		t.Errorf("rate = %v, want ≈2", rate)
	}
}

func TestMeanEffectiveSampling(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	if _, ok := c.MeanEffectiveSampling(); ok {
		t.Error("mean available with no history")
	}
	driveSamples(c, 2, func(p int, now Nanos) float64 { return 0.1 })
	s, ok := c.MeanEffectiveSampling()
	if !ok || s != Nanos(10e6) {
		t.Errorf("mean sampling = %v ok=%v, want 10ms", s, ok)
	}
}

func TestRecommendProduction(t *testing.T) {
	c := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	if _, ok := c.RecommendProduction(); ok {
		t.Error("recommendation with no history")
	}
	// Stable environment: the recommendation should be long (capped).
	driveSamples(c, 4, func(p int, now Nanos) float64 {
		return []float64{0.3, 0.2, 0.1}[p]
	})
	stable, ok := c.RecommendProduction()
	if !ok {
		t.Fatal("no recommendation")
	}
	// Fast-drifting environment: the recommendation must shrink.
	c2 := newCtl(t, KindRoundRobin, Config{
		Policies:         threePolicies(),
		TargetSampling:   Nanos(10e6),
		TargetProduction: Nanos(100e6),
	})
	driveSamples(c2, 6, func(p int, now Nanos) float64 {
		tSec := float64(now) / 1e9
		return 0.5 + 0.4*math.Sin(3*tSec+float64(p))
	})
	drifting, ok := c2.RecommendProduction()
	if !ok {
		t.Fatal("no recommendation for drifting environment")
	}
	if drifting >= stable {
		t.Errorf("drifting recommendation %v not shorter than stable %v", drifting, stable)
	}
	if drifting < c2.Config().TargetSampling {
		t.Errorf("recommendation %v below sampling interval", drifting)
	}
	if stable > maxRecommendedProduction {
		t.Errorf("recommendation %v above cap", stable)
	}
}

func TestAutoTuneProduction(t *testing.T) {
	forKinds(t, func(t *testing.T, kind string) {
		mk := func(auto bool) *Controller {
			return newCtl(t, kind, Config{
				Policies:           threePolicies(),
				TargetSampling:     Nanos(10e6),
				TargetProduction:   Nanos(500e9), // deliberately enormous
				AutoTuneProduction: auto,
			})
		}
		drift := func(p int, now Nanos) float64 {
			tSec := float64(now) / 1e9
			return 0.5 + 0.4*math.Sin(5*tSec+float64(p))
		}
		tuned := mk(true)
		driveSamples(tuned, 3, drift)
		fixed := mk(false)
		driveSamples(fixed, 3, drift)
		// After a couple of rounds the tuned controller's production target
		// must have shrunk far below the configured 500s; the fixed one keeps
		// its setting.
		for tuned.Phase() == Sampling {
			tuned.CompletePhase(0, Measurement{LockTime: 1, ExecTime: 1e9, Acquires: 1})
		}
		for fixed.Phase() == Sampling {
			fixed.CompletePhase(0, Measurement{LockTime: 1, ExecTime: 1e9, Acquires: 1})
		}
		if got := fixed.TargetInterval(); got != Nanos(500e9) {
			t.Errorf("fixed production target = %v, want 500e9", got)
		}
		if got := tuned.TargetInterval(); got >= Nanos(500e9) {
			t.Errorf("tuned production target = %v, want far below 500e9", got)
		}
		if got := tuned.TargetInterval(); got < tuned.Config().TargetSampling {
			t.Errorf("tuned target %v below sampling interval", got)
		}
	})
}
