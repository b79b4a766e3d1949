package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/perturb"
	"repro/internal/simsample"
)

// The sampled-simulation tier: a set of large-workload cells run twice —
// once with interval sampling (interp.Options.Sample) and once
// exhaustively — through simsample.Validate. Each cell's report carries
// the extrapolated metrics with confidence intervals, the exhaustive
// ground truth, per-metric containment verdicts, and both wall-clocks.
// The tier is deliberately outside the cached experiment suite: sampled
// runs are estimates and are rejected by interp.CacheKey, and the
// exhaustive runs must execute cold so the recorded speedup is the
// genuine simulation-cost ratio, not a cache artifact.

// SamplingCell describes one cell of the tier.
type SamplingCell struct {
	Label    string            `json:"label"`
	App      string            `json:"app"`
	Policy   string            `json:"policy"`
	Scenario string            `json:"scenario,omitempty"`
	Params   map[string]int64  `json:"params"`
	Spec     interp.SampleSpec `json:"spec"`
}

// SamplingCellResult is one validated cell.
type SamplingCellResult struct {
	SamplingCell
	Report *simsample.Report `json:"report"`
}

// SamplingJSON is the `sampling` block of the benchmark artifact.
type SamplingJSON struct {
	Quick bool `json:"quick"`
	Procs int  `json:"procs"`
	// Confidence and RelFloor echo the estimator configuration.
	Confidence float64              `json:"confidence"`
	RelFloor   float64              `json:"rel_floor"`
	Cells      []SamplingCellResult `json:"cells"`
	// Tier totals: wall-clock of all sampled vs all exhaustive runs, their
	// ratio, and whether every metric of every cell contained its ground
	// truth.
	SampledWallMS    float64 `json:"sampled_wall_ms"`
	ExhaustiveWallMS float64 `json:"exhaustive_wall_ms"`
	Speedup          float64 `json:"speedup"`
	AllContained     bool    `json:"all_contained"`
	Rollbacks        int     `json:"rollbacks"`
}

// SamplingCells returns the tier's cells. The full tier uses
// apps.LargeParams with paper-scale windows; quick mode shrinks both the
// workloads and the window/gap geometry so the tier stays CI-sized.
// The final cell perturbs Barnes-Hut with the crossover scenario: heavy
// background contention switches on at a fixed virtual time inside the
// FORCES section, so a fast-forward gap extrapolates across a genuine
// phase change and the rollback path runs against ground truth.
func SamplingCells(quick bool) []SamplingCell {
	if quick {
		spec := interp.SampleSpec{WindowIters: 64, GapIters: 512, MinSectionIters: 256}
		return []SamplingCell{
			{Label: "barneshut", App: apps.NameBarnesHut, Policy: "bounded", Spec: spec,
				Params: map[string]int64{"nbodies": 2048, "listlen": 24, "interwork": 20000, "npasses": 1, "serialwork": 4000}},
			{Label: "water", App: apps.NameWater, Policy: "bounded", Spec: spec,
				Params: map[string]int64{"nmol": 640, "nsteps": 1, "energydepth": 1, "serialwork": 4000}},
			{Label: "string", App: apps.NameString, Policy: "bounded", Spec: spec,
				Params: map[string]int64{"gridside": 24, "nrays": 2048, "pathlen": 24, "nrounds": 1, "serialwork": 4000}},
			// interwork is raised so the FORCES section spans the scenario's
			// 400ms change point even at the reduced body count.
			{Label: "barneshut-crossover", App: apps.NameBarnesHut, Policy: "bounded", Scenario: "crossover", Spec: spec,
				Params: map[string]int64{"nbodies": 2048, "listlen": 12, "interwork": 160000, "npasses": 1, "serialwork": 4000}},
		}
	}
	return []SamplingCell{
		{Label: "barneshut", App: apps.NameBarnesHut, Policy: "bounded",
			Spec:   interp.SampleSpec{WindowIters: 128, GapIters: 8192, MinSectionIters: 1024},
			Params: apps.LargeParams(apps.NameBarnesHut)},
		// Water's pair loops are triangular (iteration i does nmol-i-1 pair
		// operations), so windows are shorter: the linear trend tracks the
		// decline across a narrower horizon.
		{Label: "water", App: apps.NameWater, Policy: "bounded",
			Spec:   interp.SampleSpec{WindowIters: 32, GapIters: 4096, MinSectionIters: 256},
			Params: apps.LargeParams(apps.NameWater)},
		{Label: "string", App: apps.NameString, Policy: "bounded",
			Spec:   interp.SampleSpec{WindowIters: 128, GapIters: 4096, MinSectionIters: 1024},
			Params: apps.LargeParams(apps.NameString)},
		// The rollback showcase is deliberately smaller than the uniform
		// Barnes-Hut cell: a rollback re-executes up to one gap in detail,
		// so a tight gap bounds the cost while interwork stretches the
		// FORCES section across the scenario's 400ms change point.
		{Label: "barneshut-crossover", App: apps.NameBarnesHut, Policy: "bounded", Scenario: "crossover",
			Spec:   interp.SampleSpec{WindowIters: 128, GapIters: 1024, MinSectionIters: 512},
			Params: map[string]int64{"nbodies": 2048, "listlen": 12, "interwork": 160000, "npasses": 1, "serialwork": 10000}},
	}
}

// SamplingValidation runs the tier: every cell sampled and exhaustive,
// estimator containment checked against ground truth. cfg contributes
// Quick; the simulation cache is deliberately not consulted.
func SamplingValidation(cfg SuiteConfig) (*SamplingJSON, error) {
	scfg := simsample.Config{}
	out := &SamplingJSON{Quick: cfg.Quick, Procs: 8, Confidence: 0.95, RelFloor: 0.02}
	out.AllContained = true
	for _, cell := range SamplingCells(cfg.Quick) {
		c, err := apps.Compile(cell.App)
		if err != nil {
			return nil, err
		}
		spec := cell.Spec
		opts := interp.Options{
			Procs: out.Procs, Policy: cell.Policy,
			Params: cell.Params, Sample: &spec,
		}
		if cell.Scenario != "" {
			sched, ok := perturb.Scenario(cell.Scenario)
			if !ok {
				return nil, fmt.Errorf("bench: sampling cell %s: unknown scenario %q", cell.Label, cell.Scenario)
			}
			opts.Perturb = sched
		}
		rep, err := simsample.Validate(c.Parallel, opts, scfg)
		if err != nil {
			return nil, fmt.Errorf("bench: sampling cell %s: %w", cell.Label, err)
		}
		out.Cells = append(out.Cells, SamplingCellResult{SamplingCell: cell, Report: rep})
		out.SampledWallMS += float64(rep.SampledWallNS) / 1e6
		out.ExhaustiveWallMS += float64(rep.ExhaustiveWallNS) / 1e6
		out.Rollbacks += rep.Estimate.Rollbacks
		if !rep.AllContained {
			out.AllContained = false
		}
	}
	if out.SampledWallMS > 0 {
		out.Speedup = out.ExhaustiveWallMS / out.SampledWallMS
	}
	return out, nil
}

// Format renders the tier as text.
func (sj *SamplingJSON) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sampling: sampled simulation vs exhaustive ground truth (%d procs) ==\n", sj.Procs)
	for _, cell := range sj.Cells {
		rep := cell.Report
		fmt.Fprintf(&b, "%s:", cell.Label)
		if cell.Scenario != "" {
			fmt.Fprintf(&b, " [%s]", cell.Scenario)
		}
		fmt.Fprintf(&b, " skipped %.0f%%, %d window(s), %d gap(s), %d rollback(s), wall %.0f ms vs %.0f ms (%.1fx)\n",
			rep.SkipRatio*100, rep.Estimate.Windows, rep.Estimate.Gaps, rep.Estimate.Rollbacks,
			float64(rep.SampledWallNS)/1e6, float64(rep.ExhaustiveWallNS)/1e6,
			float64(rep.ExhaustiveWallNS)/float64(max(rep.SampledWallNS, 1)))
		for _, m := range rep.Estimate.Metrics {
			mark := "in "
			if !rep.Contained[m.Name] {
				mark = "OUT"
			}
			fmt.Fprintf(&b, "  %-16s est %14.0f  [%14.0f, %14.0f]  ground %14.0f  %s\n",
				m.Name, m.Value, m.Lo, m.Hi, rep.Ground[m.Name], mark)
		}
	}
	verdict := "every ground-truth metric inside its 95% interval"
	if !sj.AllContained {
		verdict = "GROUND TRUTH ESCAPED an interval"
	}
	fmt.Fprintf(&b, "sampling tier: %.0f ms sampled vs %.0f ms exhaustive (%.1fx); %s\n",
		sj.SampledWallMS, sj.ExhaustiveWallMS, sj.Speedup, verdict)
	return b.String()
}
