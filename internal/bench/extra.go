package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/simmach"
	"repro/theory"
)

// figure3 reproduces the theory figure: the feasible region for the
// production interval P under the eq. 7 performance bound, with the
// paper's example values (S=1, N=2, λ=0.065, δ=0.5).
func figure3(s *Suite, r *Report) error {
	p := theory.Figure3Params
	pts, err := p.Figure3Series(theory.Figure3Delta, 0, 30, 0.25)
	if err != nil {
		return err
	}
	r.XLabel, r.YLabel = "production interval P (s)", "constraint value"
	lhs := Series{Name: "constraint LHS"}
	rhs := Series{Name: "bound RHS"}
	for _, pt := range pts {
		lhs.X = append(lhs.X, pt.P)
		lhs.Y = append(lhs.Y, pt.LHS)
		rhs.X = append(rhs.X, pt.P)
		rhs.Y = append(rhs.Y, pt.RHS)
	}
	r.Series = append(r.Series, lhs, rhs)
	lo, hi, err := p.FeasibleRegion(theory.Figure3Delta)
	if err != nil {
		return err
	}
	r.Notes = append(r.Notes, fmt.Sprintf("feasible region: [%.3f, %.3f] seconds", lo, hi))
	r.check("region is bounded below and above", lo > 0 && hi > lo && hi < 30,
		"[%.2f, %.2f]", lo, hi)
	popt, err := p.POpt()
	if err != nil {
		return err
	}
	r.check("P_opt inside the region", popt > lo && popt < hi, "P_opt %.3f", popt)
	return nil
}

// eq9 solves for the optimal production interval of the paper's example.
func eq9(s *Suite, r *Report) error {
	popt, err := theory.Figure3Params.POpt()
	if err != nil {
		return err
	}
	r.Header = []string{"S", "N", "lambda", "P_opt"}
	p := theory.Figure3Params
	r.Rows = append(r.Rows, []string{
		fmt.Sprintf("%.1f", p.S), fmt.Sprintf("%d", p.N),
		fmt.Sprintf("%.3f", p.Lambda), fmt.Sprintf("%.3f", popt)})
	r.check("P_opt ≈ 7.25 (paper's value)", popt > 7.0 && popt < 7.5, "P_opt = %.3f", popt)
	return nil
}

// ablationAsync measures what §4.1 argues for synchronous switching:
// without the barrier, measurements mix versions. The check is that the
// synchronous controller still picks the right POTENG production version,
// and the report records whether the asynchronous one did.
func ablationAsync(s *Suite, r *Report) error {
	r.Header = []string{"Mode", "Time (s)", "POTENG production version"}
	prodVersion := func(res *interp.Result) string {
		sec := section(res, "POTENG")
		if sec == nil {
			return "?"
		}
		for _, smp := range sec.Samples {
			if smp.Kind == "production" {
				return smp.Label
			}
		}
		for _, smp := range sec.Samples {
			if smp.Kind == "partial" {
				return smp.Label
			}
		}
		return "?"
	}
	results, err := s.Runs([]RunSpec{
		{App: apps.NameWater, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic}},
		{App: apps.NameWater, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic, AsyncSwitch: true}},
	})
	if err != nil {
		return err
	}
	sync, async := results[0], results[1]
	sv, av := prodVersion(sync), prodVersion(async)
	r.Rows = append(r.Rows,
		[]string{"synchronous", fsec(sync.Time), sv},
		[]string{"asynchronous", fsec(async.Time), av})
	r.check("synchronous switching picks the correct POTENG version",
		sv == "original/bounded", "chose %q", sv)
	r.Notes = append(r.Notes, fmt.Sprintf("asynchronous mode chose %q; mixed-version measurements make its choice unreliable", av))
	return nil
}

// ablationCutoff measures the §4.5 optimizations: with early cut-off and
// history ordering, fewer sampling intervals run and performance does not
// regress.
func ablationCutoff(s *Suite, r *Report) error {
	r.Header = []string{"Mode", "Time (s)", "Sampling intervals"}
	countSampling := func(res *interp.Result) int {
		n := 0
		for _, sec := range res.Sections {
			n += samplingIntervals(sec)
		}
		return n
	}
	results, err := s.Runs([]RunSpec{
		{App: apps.NameBarnesHut, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic}},
		{App: apps.NameBarnesHut, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic, EarlyCutoff: true, OrderByHistory: true}},
	})
	if err != nil {
		return err
	}
	base, cut := results[0], results[1]
	nb, nc := countSampling(base), countSampling(cut)
	r.Rows = append(r.Rows,
		[]string{"baseline", fsec(base.Time), fmt.Sprintf("%d", nb)},
		[]string{"cutoff+ordering", fsec(cut.Time), fmt.Sprintf("%d", nc)})
	r.check("fewer sampling intervals", nc < nb, "%d vs %d", nc, nb)
	r.check("no performance regression", float64(cut.Time) < 1.05*float64(base.Time),
		"%.3fs vs %.3fs", cut.Time.Seconds(), base.Time.Seconds())
	return nil
}

// spanningCells are the two modes ablationSpan compares: per-execution
// sampling, then spanning intervals.
func spanningCells() []RunSpec {
	// Many passes over a small body set: the ADVANCEALL sections are much
	// shorter than a sampling phase.
	params := map[string]int64{"nbodies": 192, "listlen": 16, "interwork": 20000,
		"npasses": 12, "serialwork": 2000}
	opts := interp.Options{
		Procs: 8, Policy: interp.PolicyDynamic, Params: params,
		TargetSampling: 2 * simmach.Millisecond, TargetProduction: 40 * simmach.Millisecond,
	}
	spanning := opts
	spanning.SpanExecutions = true
	return []RunSpec{{App: apps.NameBarnesHut, Opts: opts}, {App: apps.NameBarnesHut, Opts: spanning}}
}

// ablationSpan measures the §4.4 extension on a workload of many short
// section executions, which cannot amortize a per-execution sampling phase.
func ablationSpan(s *Suite, r *Report) error {
	results, err := s.Runs(spanningCells())
	if err != nil {
		return err
	}
	r.Header = []string{"Mode", "Time (s)", "ADVANCEALL sampling intervals"}
	countSampling := func(res *interp.Result) int {
		if sec := section(res, "ADVANCEALL"); sec != nil {
			return samplingIntervals(sec)
		}
		return 0
	}
	base, span := results[0], results[1]
	r.Rows = append(r.Rows,
		[]string{"per-execution sampling", fsec(base.Time), fmt.Sprintf("%d", countSampling(base))},
		[]string{"spanning intervals", fsec(span.Time), fmt.Sprintf("%d", countSampling(span))})
	r.check("spanning does not slow the program",
		float64(span.Time) < 1.05*float64(base.Time),
		"span %.3fs vs base %.3fs", span.Time.Seconds(), base.Time.Seconds())
	return nil
}

// ablationFlags compares the paper's two code-generation strategies
// (§4.2): multi-version code (fast dispatch, code growth) versus a single
// version with conditional acquire/release constructs (no code growth,
// residual flag-check overhead).
func ablationFlags(s *Suite, r *Report) error {
	r.Header = []string{"Application", "Strategy", "Code (bytes)", "Aggressive time @8p (s)"}
	// Two cells per application: the aggressive policy on the
	// multi-version program and on the flag-dispatch program.
	var specs []RunSpec
	for _, name := range apps.Names {
		opts := interp.Options{Procs: 8, Policy: "aggressive"}
		specs = append(specs, RunSpec{App: name, Opts: opts}, RunSpec{App: name, Prog: progFlagged, Opts: opts})
	}
	results, err := s.Runs(specs)
	if err != nil {
		return err
	}
	for i, name := range apps.Names {
		c, err := s.App(name)
		if err != nil {
			return err
		}
		multiBytes, flagBytes := 0, 0
		for _, f := range c.Parallel.Funcs {
			multiBytes += f.CodeBytes()
		}
		for _, f := range c.Flagged.Funcs {
			flagBytes += f.CodeBytes()
		}
		multi, flag := results[2*i], results[2*i+1]
		r.Rows = append(r.Rows,
			[]string{name, "multi-version", fmt.Sprintf("%d", multiBytes), fsec(multi.Time)},
			[]string{name, "flag-dispatch", fmt.Sprintf("%d", flagBytes), fsec(flag.Time)})
		r.check(fmt.Sprintf("%s: flag dispatch avoids code growth", name),
			flagBytes < multiBytes, "%d vs %d bytes", flagBytes, multiBytes)
		r.check(fmt.Sprintf("%s: residual flag overhead is the price", name),
			flag.Time >= multi.Time && float64(flag.Time) < 1.25*float64(multi.Time),
			"flagged %.3fs vs multi %.3fs", flag.Time.Seconds(), multi.Time.Seconds())
	}
	return nil
}

// ablationAutoTune measures the run-time eq. 9 production-interval tuning
// against the paper's fixed-interval configuration: on the steady
// benchmark workloads it must match fixed intervals (the environment is
// stable, so the recommendation is long), demonstrating that closing the
// §5 loop costs nothing when it is not needed.
func ablationAutoTune(s *Suite, r *Report) error {
	r.Header = []string{"Application", "Fixed (s)", "Auto-tuned (s)"}
	names := []string{apps.NameBarnesHut, apps.NameWater}
	var specs []RunSpec
	for _, name := range names {
		specs = append(specs,
			RunSpec{App: name, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic}},
			RunSpec{App: name, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic, AutoTuneProduction: true}})
	}
	results, err := s.Runs(specs)
	if err != nil {
		return err
	}
	for i, name := range names {
		fixed, tuned := results[2*i], results[2*i+1]
		r.Rows = append(r.Rows, []string{name, fsec(fixed.Time), fsec(tuned.Time)})
		r.check(fmt.Sprintf("%s: auto-tuning costs nothing on a stable workload", name),
			float64(tuned.Time) < 1.05*float64(fixed.Time),
			"tuned %.3fs vs fixed %.3fs", tuned.Time.Seconds(), fixed.Time.Seconds())
	}
	return nil
}

// ablationInstr measures the §4.3 claim that the counter instrumentation
// has little or no effect on performance.
func ablationInstr(s *Suite, r *Report) error {
	r.Header = []string{"Mode", "Time (s)"}
	results, err := s.Runs([]RunSpec{
		{App: apps.NameBarnesHut, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic}},
		{App: apps.NameBarnesHut, Opts: interp.Options{Procs: 8, Policy: interp.PolicyDynamic, InstrumentationCost: 1}},
	})
	if err != nil {
		return err
	}
	on, off := results[0], results[1]
	r.Rows = append(r.Rows,
		[]string{"instrumented (20ns/op)", fsec(on.Time)},
		[]string{"uninstrumented (1ns/op)", fsec(off.Time)})
	diff := (on.Time.Seconds() - off.Time.Seconds()) / off.Time.Seconds()
	r.check("instrumentation overhead negligible", diff < 0.02 && diff > -0.02,
		"difference %.3f%%", diff*100)
	return nil
}
