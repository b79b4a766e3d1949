package core

import "math"

// This file implements a bandit alternative to the paper's round-robin
// sampling. Round-robin pays N sampling intervals per round (minus the §4.5
// cut-offs); with a generated policy space of a dozen or more versions that
// price dominates the adaptation latency bound P + N·S (§5). The bandit
// selector treats each sampling interval as one pull of a stochastic arm
// and skips arms whose history proves they cannot win: an arm is sampled
// only while its lower confidence bound on overhead is below the best
// overhead measured this round. Per-arm statistics decay geometrically
// between rounds, so after an environment change a formerly bad arm's bound
// widens within a few rounds and it is re-examined — the same periodic
// re-sampling guarantee round-robin has, at a fraction of the sampled
// intervals once the space is large. Each arm is pulled at most once per
// round, so a round never samples more intervals than round-robin's.
//
// The selector is deterministic: no randomization enters arm selection
// (ties break to the lowest policy index), so simulated-machine runs stay
// byte-identical across engines and repetitions.

const (
	// ucbExploration is the width constant c of the confidence bound
	// μ − c·√(ln(t+1)/n). Overheads live in [0,1] and the per-round decay
	// pins an always-pulled arm's effective count near 2, so the bound
	// settles around 0.1: arms measuring a tenth or more above the best
	// are skipped, while near-ties stay in rotation.
	ucbExploration = 0.08
	// ucbDiscount is the per-round geometric decay of arm statistics. At
	// 0.5 an arm eliminated with a bad mean re-enters the candidate set
	// after a handful of rounds even if the incumbent stays excellent,
	// bounding how long a stale elimination can persist.
	ucbDiscount = 0.5
)

// ucb is the bandit selector: discounted per-arm overhead statistics and
// the confidence bounds derived from them.
type ucb struct {
	armN   []float64 // discounted pull counts
	armSum []float64 // discounted overhead sums
	pulls  float64   // discounted total pulls, the t of the bound: Σ armN
}

// first decays the statistics — old evidence fades so eliminated arms
// regain plausibility and the controller re-adapts after environment
// changes — and opens the round with the incumbent (§4.5 ordering): it is
// both the most likely winner and the reference the elimination rule
// compares unsampled arms against.
func (u *ucb) first(c *Controller) int {
	for i := range u.armN {
		u.armN[i] *= ucbDiscount
		u.armSum[i] *= ucbDiscount
	}
	u.pulls *= ucbDiscount
	if c.lastWinnerOK {
		return c.lastWinner
	}
	arm, _ := u.pick(c)
	return arm
}

// lcb returns the lower confidence bound on policy i's overhead. An arm
// with no (surviving) history returns −Inf: nothing excludes it, so it
// must be sampled before the round may end.
func (u *ucb) lcb(i int) float64 {
	if u.armN[i] <= 0 {
		return math.Inf(-1)
	}
	mean := u.armSum[i] / u.armN[i]
	bonus := ucbExploration * math.Sqrt(math.Log(u.pulls+1)/u.armN[i])
	return mean - bonus
}

// pick returns the policy not yet sampled this round with the lowest
// confidence bound — the arm that could most plausibly be the best —
// breaking ties toward the lowest index. ok is false when every policy has
// been sampled.
func (u *ucb) pick(c *Controller) (arm int, ok bool) {
	bestLCB := math.Inf(1)
	for i, o := range c.roundOver {
		if !math.IsNaN(o) {
			continue
		}
		if l := u.lcb(i); l < bestLCB {
			bestLCB = l
			arm, ok = i, true
		}
	}
	return arm, ok
}

// next ends the round when every arm is sampled or when, even
// optimistically, no unsampled arm beats the best overhead already measured.
func (u *ucb) next(c *Controller) (int, bool) {
	arm, ok := u.pick(c)
	if !ok || u.lcb(arm) >= c.roundOver[c.bestSampled()] {
		return 0, false
	}
	return arm, true
}

// winner picks the version the production phase will run. The round's
// lowest measured overhead wins, except that an incumbent within
// HistoryMargin of it keeps the slot: among statistical near-ties the
// bandit stays put rather than churn versions on per-interval noise, which
// matters during gradual drift when arms sampled at different instants of
// the round see slightly different environments.
func (u *ucb) winner(c *Controller) int {
	best := c.bestSampled()
	if c.lastWinnerOK && c.lastWinner != best {
		if o := c.roundOver[c.lastWinner]; !math.IsNaN(o) && o <= c.roundOver[best]+c.cfg.HistoryMargin {
			return c.lastWinner
		}
	}
	return best
}

// observe counts one pull. A cut-short sampling interval counts too:
// partial evidence is better than none and keeps short executions from
// starving arm histories.
func (u *ucb) observe(arm int, over float64) {
	u.armN[arm]++
	u.armSum[arm] += over
	u.pulls++
}

// seed primes the statistics from persisted per-policy aggregates: each
// previously sampled policy counts as one pull at its historical mean,
// replacing what the arm held, so the elimination rule applies from the
// first round instead of after one full round-robin pass.
func (u *ucb) seed(stats []PolicyStats) {
	for i, st := range stats {
		if st.TimesSampled == 0 {
			continue
		}
		u.pulls += 1 - u.armN[i]
		u.armN[i] = 1
		u.armSum[i] = st.MeanOverhead()
	}
}
