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
// policy space, one experiment each.
//
// Offline (policies-search), every version of the generated space
// (internal/obl/polgen) runs statically on every bench application and the
// representative-set search (internal/polsearch) prunes the space to at
// most five versions with a measured worst-case regret. Online
// (policies-duels), the bandit controller (core.KindUCB) duels the paper's
// round-robin controller over the full generated space on each adaptivity
// scenario: both must converge to equivalent selections, the bandit must
// never pay more sampling intervals per round, and it must sample strictly
// fewer on at least one scenario — the claim that confidence-bound
// elimination, not luck, pays for the larger space.

// searchProcs is the processor count of the offline search runs and duels.
const searchProcs = 8

// policiesSearch runs the generated space on every bench application
// (Quick-scaled like any suite cell) and prunes it to a representative set.
func policiesSearch(s *Suite, r *Report) error {
	names := polgen.Names(polgen.Space())
	workloads := apps.Names
	var cells []RunSpec
	for _, w := range workloads {
		for _, n := range names {
			cells = append(cells, RunSpec{App: w, Prog: progSpace, Opts: interp.Options{Procs: searchProcs, Policy: n}})
		}
	}
	results, err := s.Runs(cells)
	if err != nil {
		return err
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
		return fmt.Errorf("bench: representative-set search: %w", err)
	}

	r.Header = []string{"Workload", "Best", "Best (s)", "Kept", "Kept (s)", "Regret"}
	for _, pw := range res.PerWorkload {
		r.Rows = append(r.Rows, []string{pw.Workload, pw.Best, fmt.Sprintf("%.3f", pw.BestTime),
			pw.Chosen, fmt.Sprintf("%.3f", pw.ChosenTime), fmt.Sprintf("%.2f%%", pw.Regret*100)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("generated space: %d versions (%s)", len(names), strings.Join(names, ", ")),
		fmt.Sprintf("representatives: %s", strings.Join(res.Representatives, ", ")))
	for _, c := range res.Clusters {
		r.Notes = append(r.Notes, fmt.Sprintf("behaviour cluster %s: %s", c.Exemplar, strings.Join(c.Members, ", ")))
	}
	r.check("at least 12 versions pruned to at most 5 representatives at no more than 5% regret",
		res.Pruned >= 12 && len(res.Representatives) <= 5 && res.Regret <= 0.05,
		"%d candidates -> %d representatives, %d pruned, regret %.2f%%, %d behaviour cluster(s)",
		res.Candidates, len(res.Representatives), res.Pruned, res.Regret*100, len(res.Clusters))
	return nil
}

// duelSide is one controller's outcome on a duel scenario.
type duelSide struct {
	total            simmach.Time
	finalVersion     string
	sampledIntervals int
	// rounds counts completed sampling rounds (production entries). A
	// controller that never finishes a round — round-robin starved by
	// short executions — has 0 and spends the whole run sampling.
	rounds int
	// readaptLatency is the virtual time from the scenario's first change
	// to the first production phase on the final version; 0 without one.
	readaptLatency simmach.Time
	readaptations  int
	versions       int
}

// perRound is sampledIntervals over max(rounds, 1): the per-round sampling
// price, which is what the bandit bounds.
func (d duelSide) perRound() float64 {
	return float64(d.sampledIntervals) / float64(max(d.rounds, 1))
}

// policiesDuels runs every adaptivity scenario under both controllers over
// the full generated policy space. The duel workloads are fixed like the
// adaptivity experiments', so the claims do not depend on Quick.
func policiesDuels(s *Suite, r *Report) error {
	controllers := []string{core.KindRoundRobin, core.KindUCB}
	var cells []RunSpec
	for _, sc := range adaptScenarios {
		for _, c := range controllers {
			cells = append(cells, sc.spec(progSpace, interp.PolicyDynamic, c))
		}
	}
	results, err := s.Runs(cells)
	if err != nil {
		return err
	}

	r.Header = []string{"Scenario", "Controller", "Total (s)", "Final version", "Sampled intervals",
		"Rounds", "Intervals/round", "Re-adaptations", "Latency (ms)"}
	var higherRate, fewer []string
	for i, sc := range adaptScenarios {
		var sides [2]duelSide
		for j, c := range controllers {
			if sides[j], err = scoreDuelSide(sc, results[2*i+j]); err != nil {
				return err
			}
			d := sides[j]
			r.Rows = append(r.Rows, []string{sc.sched.Name, c, fsec(d.total), d.finalVersion,
				fmt.Sprint(d.sampledIntervals), fmt.Sprint(d.rounds), fmt.Sprintf("%.1f", d.perRound()),
				fmt.Sprint(d.readaptations), fms(d.readaptLatency)})
		}
		rr, ucb := sides[0], sides[1]
		r.check(sc.sched.Name+": the bandit converges onto round-robin's version or finishes at least as fast",
			ucb.finalVersion == rr.finalVersion || ucb.total <= rr.total,
			"%s/%s, %d versions: roundrobin %q in %ss, ucb %q in %ss",
			sc.app, sc.section, ucb.versions, rr.finalVersion, fsec(rr.total), ucb.finalVersion, fsec(ucb.total))
		if ucb.perRound() > rr.perRound() {
			higherRate = append(higherRate, sc.sched.Name)
		}
		if ucb.sampledIntervals < rr.sampledIntervals {
			fewer = append(fewer, sc.sched.Name)
		}
	}
	// Total interval counts are not comparable directly: cheaper rounds
	// finish sooner, so more of them fit in a shorter run.
	r.check("the bandit never pays more sampling intervals per round than round-robin",
		len(higherRate) == 0, "higher on: %v", higherRate)
	r.check("the bandit samples strictly fewer intervals in total on at least one scenario",
		len(fewer) > 0, "fewer on: %v", fewer)
	return nil
}

// scoreDuelSide summarizes one controller's run of a scenario.
func scoreDuelSide(sc adaptScenario, res *interp.Result) (duelSide, error) {
	sec := section(res, sc.section)
	if sec == nil {
		return duelSide{}, fmt.Errorf("bench: %s duel: section %s missing", sc.sched.Name, sc.section)
	}
	side := duelSide{
		total:            res.Time,
		readaptations:    len(policyChanges(sec)),
		sampledIntervals: samplingIntervals(sec),
		rounds:           len(sec.Switches),
		versions:         len(sec.VersionLabels),
	}
	if n := len(sec.Switches); n > 0 {
		boundary := sc.sched.FirstChangeAt()
		final := sec.Switches[n-1]
		side.finalVersion = final.Label
		if sw, found := firstSwitchTo(sec, boundary, final.Version); found {
			side.readaptLatency = sw.At - boundary
		}
	}
	return side, nil
}
