package core

import (
	"math"

	"repro/theory"
)

// This file connects the §5 worst-case analysis to the running controller:
// the sampled overhead history yields an estimate of the decay rate λ that
// bounds how fast the environment changes, and eq. 9 then gives the
// production interval that minimizes the worst-case work deficit. The paper
// presents the analysis and the implementation separately; closing the loop
// is the natural next step it points at ("the inequality also provides
// insight into various relationships", §5).

// minLambda floors the decay-rate estimate: perfectly stable overheads
// would otherwise drive the recommended production interval to infinity.
const minLambda = 1e-4 // 1/s: a drift time constant of ~3 hours

// EstimateDecayRate estimates the exponential decay rate λ (per second) of
// the §5 model from the controller's sampling history. Under the model the
// useful-work fraction of a policy evolves as 1-o(t) = (1-v)·e^(±λt), so
// each pair of consecutive samples of the same policy gives a local rate
// |Δln(1-o)| / Δt; the estimate is the largest observed rate — λ bounds
// the change, so the worst observed drift is the right summary. The second
// result is false until at least one policy has two samples.
func (c *Controller) EstimateDecayRate() (float64, bool) {
	type point struct {
		t Nanos
		o float64
	}
	last := map[int]point{}
	rate := 0.0
	seen := false
	for _, s := range c.samples {
		if s.Kind != SampleSampling {
			continue
		}
		mid := (s.Start + s.End) / 2
		// Clamp the overhead away from 1 so ln(1-o) stays finite; an
		// overhead pinned at 1 carries no drift information anyway.
		o := math.Min(s.Overhead, 0.999)
		if p, ok := last[s.Policy]; ok && mid > p.t {
			num := math.Abs(math.Log(1-o) - math.Log(1-p.o))
			dt := float64(mid-p.t) / 1e9 // seconds
			if r := num / dt; r > rate {
				rate = r
			}
			seen = true
		}
		last[s.Policy] = point{t: mid, o: o}
	}
	if !seen {
		return 0, false
	}
	if rate < minLambda {
		rate = minLambda
	}
	return rate, true
}

// MeanEffectiveSampling returns the mean length of completed sampling
// intervals — the S of the §5 analysis (§4.1's effective sampling
// interval). The second result is false before any sampling interval has
// completed.
func (c *Controller) MeanEffectiveSampling() (Nanos, bool) {
	var total Nanos
	n := 0
	for _, s := range c.samples {
		if s.Kind != SampleSampling {
			continue
		}
		total += s.End - s.Start
		n++
	}
	if n == 0 {
		return 0, false
	}
	return total / Nanos(n), true
}

// maxRecommendedProduction caps the recommendation; beyond this the model's
// "environment barely drifts" regime makes longer intervals pointless.
const maxRecommendedProduction = Nanos(1000e9) // 1000s

// RecommendProduction derives a production interval from the observed
// history: S from the mean effective sampling interval, N from the number
// of policies, λ from EstimateDecayRate, and P from eq. 9 (P_opt). The
// second result is false while the history is too thin to estimate.
func (c *Controller) RecommendProduction() (Nanos, bool) {
	lambda, ok := c.EstimateDecayRate()
	if !ok {
		return 0, false
	}
	s, ok := c.MeanEffectiveSampling()
	if !ok || s <= 0 {
		return 0, false
	}
	p := theory.Params{
		S:      float64(s) / 1e9,
		N:      len(c.cfg.Policies),
		Lambda: lambda,
	}
	popt, err := p.POpt()
	if err != nil {
		return 0, false
	}
	rec := Nanos(popt * 1e9)
	if rec > maxRecommendedProduction {
		rec = maxRecommendedProduction
	}
	if rec < c.cfg.TargetSampling {
		rec = c.cfg.TargetSampling
	}
	return rec, true
}
