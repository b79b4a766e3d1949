package bench

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/perturb"
	"repro/internal/simsample"
)

// The sampled-simulation tier: a set of large-workload cells run twice —
// once with interval sampling (interp.Options.Sample) and once
// exhaustively — through simsample.Validate. The report carries every
// extrapolated metric with its confidence interval beside the exhaustive
// ground truth, and the tier's claims are shape checks. Neither run is a
// suite cell: sampled runs are estimates, which interp.CacheKey refuses,
// and the exhaustive runs execute cold so the wall-clock pair on stderr
// (Report.HostNotes) is the genuine simulation-cost ratio.

const (
	samplingProcs  = 8
	samplingPolicy = "bounded"
	// minSkipShare is the share of iterations a cell must fast-forward for
	// sampling to count as engaged: the deterministic form of "the sampled
	// side is cheaper than the exhaustive one".
	minSkipShare = 0.4
)

// samplingCell is one cell of the tier. A non-nil sched perturbs the run.
type samplingCell struct {
	label, app string
	sched      *perturb.Schedule
	params     map[string]int64
	spec       interp.SampleSpec
}

// samplingCells returns the tier's cells. The full tier uses
// apps.LargeParams with paper-scale windows; quick mode shrinks both the
// workloads and the window/gap geometry so the tier stays CI-sized.
// The final cell perturbs Barnes-Hut with the crossover scenario: heavy
// background contention switches on at a fixed virtual time inside the
// FORCES section, so a fast-forward gap extrapolates across a genuine
// phase change and the rollback path runs against ground truth.
func samplingCells(quick bool) []samplingCell {
	if quick {
		spec := interp.SampleSpec{WindowIters: 64, GapIters: 512, MinSectionIters: 256}
		return []samplingCell{
			{label: "barneshut", app: apps.NameBarnesHut, spec: spec,
				params: map[string]int64{"nbodies": 2048, "listlen": 24, "interwork": 20000, "npasses": 1, "serialwork": 4000}},
			{label: "water", app: apps.NameWater, spec: spec,
				params: map[string]int64{"nmol": 640, "nsteps": 1, "energydepth": 1, "serialwork": 4000}},
			{label: "string", app: apps.NameString, spec: spec,
				params: map[string]int64{"gridside": 24, "nrays": 2048, "pathlen": 24, "nrounds": 1, "serialwork": 4000}},
			// interwork is raised so the FORCES section spans the scenario's
			// 400ms change point even at the reduced body count.
			{label: "barneshut-crossover", app: apps.NameBarnesHut, sched: perturb.Crossover(), spec: spec,
				params: map[string]int64{"nbodies": 2048, "listlen": 12, "interwork": 160000, "npasses": 1, "serialwork": 4000}},
		}
	}
	return []samplingCell{
		{label: "barneshut", app: apps.NameBarnesHut,
			spec:   interp.SampleSpec{WindowIters: 128, GapIters: 8192, MinSectionIters: 1024},
			params: apps.LargeParams(apps.NameBarnesHut)},
		// Water's pair loops are triangular (iteration i does nmol-i-1 pair
		// operations), so windows are shorter: the linear trend tracks the
		// decline across a narrower horizon.
		{label: "water", app: apps.NameWater,
			spec:   interp.SampleSpec{WindowIters: 32, GapIters: 4096, MinSectionIters: 256},
			params: apps.LargeParams(apps.NameWater)},
		{label: "string", app: apps.NameString,
			spec:   interp.SampleSpec{WindowIters: 128, GapIters: 4096, MinSectionIters: 1024},
			params: apps.LargeParams(apps.NameString)},
		// The rollback showcase is deliberately smaller than the uniform
		// Barnes-Hut cell: a rollback re-executes up to one gap in detail,
		// so a tight gap bounds the cost while interwork stretches the
		// FORCES section across the scenario's 400ms change point.
		{label: "barneshut-crossover", app: apps.NameBarnesHut, sched: perturb.Crossover(),
			spec:   interp.SampleSpec{WindowIters: 128, GapIters: 1024, MinSectionIters: 512},
			params: map[string]int64{"nbodies": 2048, "listlen": 12, "interwork": 160000, "npasses": 1, "serialwork": 10000}},
	}
}

// samplingTier runs the tier: every cell sampled and exhaustive, one row per
// cell and metric, and per cell the checks that the ground truth lies
// inside every interval, that sampling engaged, and — on the perturbed
// cell — that the phase change was detected and rolled back rather than
// extrapolated through. The cells run one at a time in one of the suite's
// simulation slots, under the VM whatever the suite's engine (sampling
// needs its snapshots).
func samplingTier(s *Suite, r *Report) error {
	r.Header = []string{"Cell", "Metric", "Estimate", "Lo", "Hi", "Ground truth", "In"}
	var skipped, detailed int64
	var sampledWall, exhaustiveWall time.Duration
	defer s.slot()()
	for _, cell := range samplingCells(s.cfg.Quick) {
		c, err := s.App(cell.app)
		if err != nil {
			return err
		}
		spec := cell.spec
		rep, err := simsample.Validate(c.Parallel, interp.Options{
			Procs: samplingProcs, Policy: samplingPolicy,
			Params: cell.params, Perturb: cell.sched, Sample: &spec,
		})
		if err != nil {
			return fmt.Errorf("bench: sampling cell %s: %w", cell.label, err)
		}
		est := rep.Estimate
		var out []string
		for _, m := range est.Metrics {
			in := "in"
			if !rep.Contained[m.Name] {
				in = "OUT"
				out = append(out, m.Name)
			}
			r.Rows = append(r.Rows, []string{cell.label, m.Name, fmt.Sprintf("%.0f", m.Value),
				fmt.Sprintf("%.0f", m.Lo), fmt.Sprintf("%.0f", m.Hi), fmt.Sprintf("%.0f", rep.Ground[m.Name]), in})
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: windows of %d and gaps of up to %d iterations; %d window(s), %d gap(s), %d rollback(s); params %v",
			cell.label, spec.WindowIters, spec.GapIters, est.Windows, est.Gaps, est.Rollbacks, cell.params))
		r.check(cell.label+": every ground-truth metric inside its interval", rep.AllContained,
			"%d of %d contained, outside: %v", len(est.Metrics)-len(out), len(est.Metrics), out)
		r.check(fmt.Sprintf("%s: at least %.0f%% of iterations fast-forwarded", cell.label, minSkipShare*100),
			rep.SkipRatio >= minSkipShare,
			"skipped %d of %d (%.0f%%)", est.SkippedIters, est.SkippedIters+est.DetailedIters, rep.SkipRatio*100)
		if cell.sched != nil {
			r.check(cell.label+": the perturbed cell rolled back", est.Rollbacks > 0,
				"%d rollback(s) under the %s scenario", est.Rollbacks, cell.sched.Name)
		}
		skipped += est.SkippedIters
		detailed += est.DetailedIters
		sampledWall += rep.SampledWall
		exhaustiveWall += rep.ExhaustiveWall
		r.HostNotes = append(r.HostNotes, fmt.Sprintf("sampling: %s: %v sampled vs %v exhaustive",
			cell.label, rep.SampledWall.Round(time.Millisecond), rep.ExhaustiveWall.Round(time.Millisecond)))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("tier: fast-forwarded %d of %d iterations", skipped, skipped+detailed))
	r.HostNotes = append(r.HostNotes, fmt.Sprintf("sampling: tier: %v sampled vs %v exhaustive",
		sampledWall.Round(time.Millisecond), exhaustiveWall.Round(time.Millisecond)))
	return nil
}
