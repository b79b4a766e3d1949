package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obl/polgen"
	"repro/internal/polsearch"
	"repro/internal/simmach"
)

// The policy-space tier: the offline and online halves of the generated
// policy space, recorded as the `policies` block of the benchmark
// artifact.
//
// Offline, every version of the generated space (internal/obl/polgen) runs
// statically on every bench application and the representative-set search
// (internal/polsearch) prunes the space to at most five versions with a
// measured worst-case regret. Online, the bandit controller (core.KindUCB)
// duels the paper's round-robin controller over the full generated space on
// each adaptivity scenario: both must converge to equivalent selections,
// the bandit must never sample more intervals, and it must sample strictly
// fewer on at least one scenario — the claim that confidence-bound
// elimination, not luck, pays for the larger space.

// searchProcs is the processor count of the offline search runs and duels.
const searchProcs = 8

// PolicyDuelSide is one controller's outcome on a duel scenario.
type PolicyDuelSide struct {
	TotalS           float64 `json:"total_s"`
	FinalVersion     string  `json:"final_version"`
	SampledIntervals int     `json:"sampled_intervals"`
	// Rounds counts completed sampling rounds (production entries). A
	// controller that never finishes a round — round-robin starved by
	// short executions — reports 0 and spends the whole run sampling.
	Rounds int `json:"rounds"`
	// IntervalsPerRound is SampledIntervals over max(Rounds, 1): the
	// per-round sampling price, which is what the bandit bounds.
	IntervalsPerRound float64 `json:"intervals_per_round"`
	Readaptations     int     `json:"readaptations"`
	ReadaptLatencyMS  float64 `json:"readapt_latency_ms,omitempty"`
}

// PolicyDuel is one adaptivity scenario run under both controllers over
// the full generated policy space.
type PolicyDuel struct {
	Scenario string         `json:"scenario"`
	App      string         `json:"app"`
	Section  string         `json:"section"`
	Versions int            `json:"versions"`
	RR       PolicyDuelSide `json:"roundrobin"`
	UCB      PolicyDuelSide `json:"ucb"`
	// SelectionOK: the bandit converged onto the same final version, or
	// finished at least as fast overall.
	SelectionOK bool `json:"selection_ok"`
}

// PoliciesJSON is the `policies` block of the benchmark artifact.
type PoliciesJSON struct {
	Quick     bool     `json:"quick"`
	Procs     int      `json:"procs"`
	SpaceSize int      `json:"space_size"`
	Space     []string `json:"space"`

	Search *polsearch.Result `json:"search"`
	// SearchOK: the search pruned at least 12 generated versions down to at
	// most 5 representatives with measured regret at most 5%.
	SearchOK bool `json:"search_ok"`

	Duels []PolicyDuel `json:"duels"`
	// SelectionOK: every duel's bandit selection matched or beat round-robin.
	SelectionOK bool `json:"selection_ok"`
	// NeverHigherRate: on no scenario did the bandit pay more sampling
	// intervals per round than round-robin. (Total interval counts are not
	// comparable directly: cheaper rounds finish sooner, so more of them
	// fit in a shorter run.)
	NeverHigherRate bool `json:"never_higher_rate"`
	// FewerSomewhere: on at least one scenario the bandit sampled strictly
	// fewer intervals in total.
	FewerSomewhere bool `json:"fewer_somewhere"`
	// OK is the conjunction of every check above.
	OK bool `json:"ok"`
}

// PoliciesValidation runs the tier. cfg contributes Quick (workload
// scaling for the offline search), Cache and Parallelism; the duel
// workloads are fixed like the adaptivity experiments', so the online
// claims do not depend on -quick.
func PoliciesValidation(cfg SuiteConfig) (*PoliciesJSON, error) {
	s := NewSuite(cfg)
	specs := polgen.Space()
	names := polgen.Names(specs)
	out := &PoliciesJSON{
		Quick:     cfg.Quick,
		Procs:     searchProcs,
		SpaceSize: len(specs),
		Space:     names,
	}

	// Offline: the full generated space, statically, on every bench app.
	workloads := apps.Names
	var cells []RunSpec
	for _, w := range workloads {
		for _, n := range names {
			cells = append(cells, RunSpec{App: w, Prog: progSpace, Opts: interp.Options{Procs: searchProcs, Policy: n}})
		}
	}
	results, err := s.Runs(cells)
	if err != nil {
		return nil, err
	}
	points := make([]polsearch.Point, len(names))
	for i, n := range names {
		points[i] = polsearch.Point{Name: n, Times: make([]float64, len(workloads))}
	}
	for i, res := range results {
		points[i%len(names)].Times[i/len(names)] = res.Time.Seconds()
	}
	res, err := polsearch.Search(workloads, points, polsearch.Config{MaxRepresentatives: 5})
	if err != nil {
		return nil, fmt.Errorf("bench: policies: %w", err)
	}
	out.Search = res
	out.SearchOK = res.Pruned >= 12 && len(res.Representatives) <= 5 && res.Regret <= 0.05

	// Online: round-robin vs bandit over the full space, per scenario.
	cells = nil
	for _, sc := range adaptScenarios {
		cells = append(cells,
			sc.spec(progSpace, interp.PolicyDynamic, core.KindRoundRobin),
			sc.spec(progSpace, interp.PolicyDynamic, core.KindUCB))
	}
	if results, err = s.Runs(cells); err != nil {
		return nil, err
	}
	duels := make([]PolicyDuel, len(adaptScenarios))
	for i, sc := range adaptScenarios {
		if duels[i], err = scoreDuel(sc, results[2*i], results[2*i+1]); err != nil {
			return nil, err
		}
	}
	out.Duels = duels
	out.SelectionOK = true
	out.NeverHigherRate = true
	for _, d := range duels {
		if !d.SelectionOK {
			out.SelectionOK = false
		}
		if d.UCB.IntervalsPerRound > d.RR.IntervalsPerRound {
			out.NeverHigherRate = false
		}
		if d.UCB.SampledIntervals < d.RR.SampledIntervals {
			out.FewerSomewhere = true
		}
	}
	out.OK = out.SearchOK && out.SelectionOK && out.NeverHigherRate && out.FewerSomewhere
	return out, nil
}

// scoreDuel scores one scenario's round-robin and bandit runs.
func scoreDuel(sc adaptScenario, rr, ucb *interp.Result) (PolicyDuel, error) {
	duel := PolicyDuel{Scenario: sc.sched.Name, App: sc.app, Section: sc.section}
	var err error
	if duel.RR, duel.Versions, err = duelSide(sc, rr); err != nil {
		return duel, err
	}
	if duel.UCB, duel.Versions, err = duelSide(sc, ucb); err != nil {
		return duel, err
	}
	duel.SelectionOK = duel.UCB.FinalVersion == duel.RR.FinalVersion || duel.UCB.TotalS <= duel.RR.TotalS
	return duel, nil
}

// duelSide summarizes one controller's run of a scenario, and reports how
// many versions the scenario's section offered it.
func duelSide(sc adaptScenario, res *interp.Result) (PolicyDuelSide, int, error) {
	sec := section(res, sc.section)
	if sec == nil {
		return PolicyDuelSide{}, 0, fmt.Errorf("bench: policies: duel %s: section %s missing", sc.sched.Name, sc.section)
	}
	side := PolicyDuelSide{
		TotalS:           res.Time.Seconds(),
		Readaptations:    len(policyChanges(sec)),
		SampledIntervals: samplingIntervals(sec),
		Rounds:           len(sec.Switches),
	}
	side.IntervalsPerRound = float64(side.SampledIntervals) / float64(max(side.Rounds, 1))
	if n := len(sec.Switches); n > 0 {
		boundary := sc.sched.FirstChangeAt()
		final := sec.Switches[n-1]
		side.FinalVersion = final.Label
		if sw, found := firstSwitchTo(sec, boundary, final.Version); found {
			side.ReadaptLatencyMS = float64(sw.At-boundary) / float64(simmach.Millisecond)
		}
	}
	return side, len(sec.VersionLabels), nil
}

// Format renders the tier as text.
func (pj *PoliciesJSON) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== policies: generated space, representative-set search, controller duel (%d procs) ==\n", pj.Procs)
	fmt.Fprintf(&b, "generated space: %d versions (%s ... %s)\n", pj.SpaceSize, pj.Space[0], pj.Space[len(pj.Space)-1])
	if pj.Search != nil {
		fmt.Fprintf(&b, "search: %d candidates -> %d representatives (%s), %d pruned, regret %.2f%%, %d behaviour cluster(s)\n",
			pj.Search.Candidates, len(pj.Search.Representatives),
			strings.Join(pj.Search.Representatives, ", "),
			pj.Search.Pruned, pj.Search.Regret*100, len(pj.Search.Clusters))
		for _, pw := range pj.Search.PerWorkload {
			fmt.Fprintf(&b, "  %-10s best %s (%.3fs)  kept %s (%.3fs)  regret %.2f%%\n",
				pw.Workload, pw.Best, pw.BestTime, pw.Chosen, pw.ChosenTime, pw.Regret*100)
		}
	}
	for _, d := range pj.Duels {
		verdict := "selection ok"
		if !d.SelectionOK {
			verdict = "SELECTION DEGRADED"
		}
		fmt.Fprintf(&b, "duel %-10s (%s/%s, %d versions): rr %.3fs %d intervals (%.1f/round) -> %q | ucb %.3fs %d intervals (%.1f/round) -> %q; %s\n",
			d.Scenario, d.App, d.Section, d.Versions,
			d.RR.TotalS, d.RR.SampledIntervals, d.RR.IntervalsPerRound, d.RR.FinalVersion,
			d.UCB.TotalS, d.UCB.SampledIntervals, d.UCB.IntervalsPerRound, d.UCB.FinalVersion, verdict)
		if d.RR.ReadaptLatencyMS > 0 || d.UCB.ReadaptLatencyMS > 0 {
			fmt.Fprintf(&b, "  re-adaptation latency: rr %.1fms, ucb %.1fms\n", d.RR.ReadaptLatencyMS, d.UCB.ReadaptLatencyMS)
		}
	}
	verdict := "policies tier ok"
	if !pj.OK {
		verdict = "POLICIES TIER FAILED"
	}
	fmt.Fprintf(&b, "%s: search_ok=%v selection_ok=%v never_higher_rate=%v fewer_somewhere=%v\n",
		verdict, pj.SearchOK, pj.SelectionOK, pj.NeverHigherRate, pj.FewerSomewhere)
	return b.String()
}
