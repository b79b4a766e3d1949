package bench

import (
	"fmt"
	"slices"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/simmach"
)

// policyRows is the fan-out of the per-version tables and of every
// adaptivity experiment: the three static policies plus the dynamic
// controller, in report order.
var policyRows = []string{"original", "bounded", "aggressive", interp.PolicyDynamic}

// policyRuns simulates an application's four versions at one processor
// count, keyed by version.
func policyRuns(s *Suite, app string, procs int) (map[string]*interp.Result, error) {
	specs := make([]RunSpec, len(policyRows))
	for i, policy := range policyRows {
		specs[i] = RunSpec{App: app, Opts: interp.Options{Procs: procs, Policy: policy}}
	}
	results, err := s.Runs(specs)
	if err != nil {
		return nil, err
	}
	runs := map[string]*interp.Result{}
	for i, policy := range policyRows {
		runs[policy] = results[i]
	}
	return runs, nil
}

// appTimes is one application's execution times: the serial baseline and
// each version at each configured processor count.
type appTimes struct {
	serial simmach.Time
	at     map[string]map[int]simmach.Time
}

func (t appTimes) sec(policy string, p int) float64 { return t.at[policy][p].Seconds() }

func (t appTimes) speedup(policy string, p int) float64 {
	return t.serial.Seconds() / t.sec(policy, p)
}

// executionTimes gathers one application's execution times for the four
// versions across the configured processor counts, plus the serial
// baseline.
func executionTimes(s *Suite, app string) (appTimes, error) {
	specs := []RunSpec{{App: app, Prog: progSerial}}
	for _, policy := range policyRows {
		for _, p := range s.cfg.Procs {
			specs = append(specs, RunSpec{App: app, Opts: interp.Options{Procs: p, Policy: policy}})
		}
	}
	results, err := s.Runs(specs)
	if err != nil {
		return appTimes{}, err
	}
	t := appTimes{serial: results[0].Time, at: map[string]map[int]simmach.Time{}}
	for _, policy := range policyRows {
		t.at[policy] = map[int]simmach.Time{}
	}
	for i, sp := range specs[1:] {
		t.at[sp.Opts.Policy][sp.Opts.Procs] = results[1+i].Time
	}
	return t, nil
}

// timesReport renders the Table 2/7-style execution-time table.
func timesReport(s *Suite, id, title, app string) (*Report, appTimes, error) {
	t, err := executionTimes(s, app)
	if err != nil {
		return nil, t, err
	}
	r := &Report{ID: id, Title: title}
	r.Header = []string{"Version"}
	for _, p := range s.cfg.Procs {
		r.Header = append(r.Header, fmt.Sprintf("%d", p))
	}
	serialRow := []string{"Serial", fsec(t.serial)}
	for range s.cfg.Procs[1:] {
		serialRow = append(serialRow, "")
	}
	r.Rows = append(r.Rows, serialRow)
	for _, policy := range policyRows {
		row := []string{policy}
		for _, p := range s.cfg.Procs {
			row = append(row, fsec(t.at[policy][p]))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, t, nil
}

// Table2 reproduces the Barnes-Hut execution times.
func Table2(s *Suite) (*Report, error) {
	r, t, err := timesReport(s, "table2", "Execution Times for Barnes-Hut (virtual seconds)", apps.NameBarnesHut)
	if err != nil {
		return nil, err
	}
	at8 := func(p string) float64 { return t.sec(p, 8) }
	r.check("policy has significant impact",
		at8("original") > 1.2*at8("aggressive"),
		"original %.2fs vs aggressive %.2fs at 8 procs", at8("original"), at8("aggressive"))
	r.check("aggressive is the best static policy",
		at8("aggressive") < at8("bounded") && at8("bounded") < at8("original"),
		"agg %.2f < bnd %.2f < orig %.2f", at8("aggressive"), at8("bounded"), at8("original"))
	r.check("dynamic comparable to best policy",
		at8("dynamic") < 1.25*at8("aggressive"),
		"dynamic %.2fs vs aggressive %.2fs (paper: within ~11%%)", at8("dynamic"), at8("aggressive"))
	return r, nil
}

// speedupReport builds the Figure 4/6 speedup curves and returns the times
// behind them and the largest processor count, which the figures' checks
// read.
func speedupReport(s *Suite, id, title, app string) (*Report, appTimes, int, error) {
	t, err := executionTimes(s, app)
	if err != nil {
		return nil, t, 0, err
	}
	r := &Report{ID: id, Title: title, XLabel: "processors", YLabel: "speedup vs serial"}
	for _, policy := range policyRows {
		ser := Series{Name: policy}
		for _, p := range s.cfg.Procs {
			ser.X = append(ser.X, float64(p))
			ser.Y = append(ser.Y, t.speedup(policy, p))
		}
		r.Series = append(r.Series, ser)
	}
	return r, t, s.cfg.Procs[len(s.cfg.Procs)-1], nil
}

// Figure4 reproduces the Barnes-Hut speedup curves.
func Figure4(s *Suite) (*Report, error) {
	r, t, maxP, err := speedupReport(s, "figure4", "Speedups for Barnes-Hut", apps.NameBarnesHut)
	if err != nil {
		return nil, err
	}
	spAgg, spOrig := t.speedup("aggressive", maxP), t.speedup("original", maxP)
	r.check("aggressive scales", spAgg > float64(maxP)/3,
		"speedup %.1f at %d procs", spAgg, maxP)
	r.check("versions scale at similar rates (no significant false exclusion)",
		spOrig > 0.5*spAgg*t.sec("aggressive", 1)/t.sec("original", 1)*0.5,
		"orig %.1f vs agg %.1f at %d procs", spOrig, spAgg, maxP)
	return r, nil
}

// lockingReport builds the Table 3/8 locking-overhead table — executed
// acquire/release pairs and absolute locking overhead per version (the
// Dynamic numbers come from an 8-processor run, as in the paper) — and
// returns the pair counts its checks read.
func lockingReport(s *Suite, id, title, app string) (*Report, map[string]int64, error) {
	runs, err := policyRuns(s, app, 8)
	if err != nil {
		return nil, nil, err
	}
	r := &Report{ID: id, Title: title}
	r.Header = []string{"Version", "Acquire/Release Pairs", "Locking Overhead (s)"}
	pairs := map[string]int64{}
	for _, policy := range policyRows {
		c := runs[policy].Counters
		pairs[policy] = c.Acquires
		r.Rows = append(r.Rows, []string{policy, fmt.Sprintf("%d", c.Acquires), fsec(c.LockTime)})
	}
	return r, pairs, nil
}

// Table3 reproduces the Barnes-Hut locking overhead table.
func Table3(s *Suite) (*Report, error) {
	r, pairs, err := lockingReport(s, "table3", "Locking Overhead for Barnes-Hut", apps.NameBarnesHut)
	if err != nil {
		return nil, err
	}
	ratio := float64(pairs["original"]) / float64(pairs["bounded"])
	r.check("original ≈ 2× bounded pairs", ratio > 1.8 && ratio < 2.2, "ratio %.2f", ratio)
	r.check("aggressive pairs negligible", pairs["aggressive"]*20 < pairs["bounded"],
		"aggressive %d vs bounded %d", pairs["aggressive"], pairs["bounded"])
	r.check("dynamic pairs close to best (production uses aggressive)",
		pairs["dynamic"] < pairs["bounded"]/2,
		"dynamic %d vs bounded %d", pairs["dynamic"], pairs["bounded"])
	return r, nil
}

// overheadSeries builds the Figure 5/8/9 time-series of sampled overheads
// for one section of an app, using small target intervals.
func overheadSeries(s *Suite, id, title, app, sectionName string) (*Report, error) {
	res, err := s.Run(app, interp.Options{
		Procs: 8, Policy: interp.PolicyDynamic,
		TargetSampling:   2 * simmach.Millisecond,
		TargetProduction: 60 * simmach.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	sec := section(res, sectionName)
	if sec == nil {
		return nil, fmt.Errorf("bench: no section %s", sectionName)
	}
	r := &Report{ID: id, Title: title, XLabel: "execution time (s)", YLabel: "sampled overhead"}
	byLabel := map[string]*Series{}
	for _, smp := range sec.Samples {
		if smp.Kind != "sampling" {
			continue
		}
		ser, ok := byLabel[smp.Label]
		if !ok {
			ser = &Series{Name: smp.Label}
			byLabel[smp.Label] = ser
		}
		ser.X = append(ser.X, smp.End.Seconds())
		ser.Y = append(ser.Y, smp.Overhead)
	}
	for _, label := range sortedKeys(byLabel) {
		r.Series = append(r.Series, *byLabel[label])
	}
	// Stability check: per version, overheads stay relatively stable over
	// time (the paper's observation for all three applications).
	for _, ser := range r.Series {
		if len(ser.Y) < 2 {
			continue
		}
		lo, hi := slices.Min(ser.Y), slices.Max(ser.Y)
		r.check(fmt.Sprintf("%s overhead stable", ser.Name), hi-lo < 0.3,
			"spread %.3f over %d samples", hi-lo, len(ser.Y))
	}
	return r, nil
}

// seriesMeans returns the mean Y of every non-empty series, by name.
func seriesMeans(series []Series) map[string]float64 {
	mean := map[string]float64{}
	for _, ser := range series {
		sum := 0.0
		for _, y := range ser.Y {
			sum += y
		}
		if len(ser.Y) > 0 {
			mean[ser.Name] = sum / float64(len(ser.Y))
		}
	}
	return mean
}

// Figure5 is the FORCES overhead time series.
func Figure5(s *Suite) (*Report, error) {
	r, err := overheadSeries(s, "figure5",
		"Sampled Overhead for the Barnes-Hut FORCES Section on 8 Processors",
		apps.NameBarnesHut, "FORCES")
	if err != nil {
		return nil, err
	}
	// Overheads must order original > bounded > aggressive (Figure 5).
	mean := seriesMeans(r.Series)
	r.check("overhead ordering original > bounded > aggressive",
		mean["original"] > mean["bounded"] && mean["bounded"] > mean["aggressive"],
		"means %v", mean)
	return r, nil
}

// meanExecution returns the mean duration of a section's executions.
func meanExecution(sec *interp.SectionStats) simmach.Time {
	var total simmach.Time
	for _, e := range sec.Executions {
		total += e.End - e.Start
	}
	return total / simmach.Time(len(sec.Executions))
}

// sectionStats builds the Table 4/9/10-style statistics for a section,
// measured on a one-processor run of the least-synchronized static version
// (the closest observable stand-in for the paper's serial-version numbers).
func sectionStats(s *Suite, id, title, app, sectionName, policy string) (*Report, error) {
	res, err := s.Run(app, interp.Options{Procs: 1, Policy: policy})
	if err != nil {
		return nil, err
	}
	sec := section(res, sectionName)
	if sec == nil {
		return nil, fmt.Errorf("bench: no section %s", sectionName)
	}
	meanSection := meanExecution(sec)
	itersPerExec := sec.Iterations / int64(len(sec.Executions))
	meanIter := sec.Busy / simmach.Time(sec.Iterations)
	r := &Report{ID: id, Title: title}
	r.Header = []string{"Mean Section Size", "Number of Iterations", "Mean Iteration Size"}
	r.Rows = append(r.Rows, []string{
		fsec(meanSection) + " s", fmt.Sprintf("%d", itersPerExec), fms(meanIter) + " ms",
	})
	r.Notes = append(r.Notes, fmt.Sprintf("measured on a 1-processor %s run (stand-in for the serial version)", policy))
	r.check("iterations small relative to section",
		meanIter*20 < meanSection,
		"iteration %v vs section %v", meanIter, meanSection)
	return r, nil
}

// Table4 is the FORCES section statistics.
func Table4(s *Suite) (*Report, error) {
	return sectionStats(s, "table4", "Statistics for the Barnes-Hut FORCES Section",
		apps.NameBarnesHut, "FORCES", "aggressive")
}

// minSamplingIntervals builds the Table 5/11/12-style mean minimum
// effective sampling interval table: with the target sampling interval set
// to (effectively) zero, every actual sampling interval has the minimum
// effective length determined by iteration granularity and the switch
// barrier (§4.1).
func minSamplingIntervals(s *Suite, id, title, app, sectionName string) (*Report, map[string]simmach.Time, error) {
	res, err := s.Run(app, interp.Options{
		Procs: 8, Policy: interp.PolicyDynamic,
		TargetSampling:   1, // one nanosecond: expire at the first poll
		TargetProduction: 50 * simmach.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	sec := section(res, sectionName)
	if sec == nil {
		return nil, nil, fmt.Errorf("bench: no section %s", sectionName)
	}
	means := meanSampleInterval(sec)
	r := &Report{ID: id, Title: title}
	r.Header = []string{"Version", "Mean Minimum Effective Sampling Interval (ms)"}
	for _, label := range sortedKeys(means) {
		r.Rows = append(r.Rows, []string{label, fms(means[label])})
	}
	return r, means, nil
}

// Table5 is the FORCES minimum effective sampling intervals.
func Table5(s *Suite) (*Report, error) {
	r, means, err := minSamplingIntervals(s, "table5",
		"Mean Minimum Effective Sampling Intervals for FORCES (8 processors)",
		apps.NameBarnesHut, "FORCES")
	if err != nil {
		return nil, err
	}
	// Comparable in size to the mean loop iteration (Table 4 vs Table 5).
	statsRes, err := s.Run(apps.NameBarnesHut, interp.Options{Procs: 1, Policy: "aggressive"})
	if err != nil {
		return nil, err
	}
	sec := section(statsRes, "FORCES")
	meanIter := sec.Busy / simmach.Time(sec.Iterations)
	for _, label := range sortedKeys(means) {
		m := means[label]
		r.check(fmt.Sprintf("%s interval ≥ iteration and same order of magnitude", label),
			m >= meanIter && m < 40*meanIter,
			"interval %v vs iteration %v", m, meanIter)
	}
	return r, nil
}

// intervalGrid builds the Table 6/13/14-style sensitivity grid: mean
// section execution times for combinations of target sampling and
// production intervals. The grid is scaled ~10:1 from the paper's, since
// the miniature sections are ~10× shorter than the originals.
func intervalGrid(s *Suite, id, title, app, sectionName string) (*Report, [][]simmach.Time, error) {
	samplings := []simmach.Time{1 * simmach.Millisecond, 10 * simmach.Millisecond, 100 * simmach.Millisecond}
	productions := []simmach.Time{100 * simmach.Millisecond, 500 * simmach.Millisecond,
		1 * simmach.Second, 10 * simmach.Second}
	var specs []RunSpec
	for _, sm := range samplings {
		for _, pr := range productions {
			specs = append(specs, RunSpec{App: app, Opts: interp.Options{
				Procs: 8, Policy: interp.PolicyDynamic,
				TargetSampling: sm, TargetProduction: pr,
			}})
		}
	}
	results, err := s.Runs(specs)
	if err != nil {
		return nil, nil, err
	}
	r := &Report{ID: id, Title: title}
	r.Header = []string{"Sampling \\ Production"}
	for _, p := range productions {
		r.Header = append(r.Header, p.String())
	}
	grid := make([][]simmach.Time, len(samplings))
	for i, sm := range samplings {
		row := []string{sm.String()}
		for j := range productions {
			sec := section(results[i*len(productions)+j], sectionName)
			if sec == nil {
				return nil, nil, fmt.Errorf("bench: no section %s", sectionName)
			}
			mean := meanExecution(sec)
			grid[i] = append(grid[i], mean)
			row = append(row, fsec(mean))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes, "grid scaled ~10:1 from the paper's (sections are ~10× shorter here)")
	return r, grid, nil
}

// gridRange returns the best and worst cell of an interval grid.
func gridRange(grid [][]simmach.Time) (lo, hi simmach.Time) {
	cells := slices.Concat(grid...)
	return slices.Min(cells), slices.Max(cells)
}

// Table6 is the FORCES interval-sensitivity grid.
func Table6(s *Suite) (*Report, error) {
	r, grid, err := intervalGrid(s, "table6",
		"Mean Execution Times for Varying Intervals, FORCES (8 processors, virtual seconds)",
		apps.NameBarnesHut, "FORCES")
	if err != nil {
		return nil, err
	}
	lo, hi := gridRange(grid)
	// The paper: "performance is relatively insensitive to the variation in
	// the target sampling and production intervals" (within ~20%).
	r.check("performance insensitive to interval choice",
		float64(hi) < 1.45*float64(lo),
		"worst %.3fs vs best %.3fs", hi.Seconds(), lo.Seconds())
	return r, nil
}

// Table1 reproduces the executable code sizes.
func Table1(s *Suite) (*Report, error) {
	r := &Report{ID: "table1", Title: "Executable Code Sizes (bytes)"}
	r.Header = []string{"Application", "Version", "Size (bytes)"}
	for _, name := range apps.Names {
		c, err := s.App(name)
		if err != nil {
			return nil, err
		}
		sz := c.Sizes()
		r.Rows = append(r.Rows,
			[]string{name, "Serial", fmt.Sprintf("%d", sz.Serial)},
			[]string{name, "Aggressive", fmt.Sprintf("%d", sz.PerPolicy["aggressive"])},
			[]string{name, "Dynamic", fmt.Sprintf("%d", sz.Dynamic)})
		growth := float64(sz.Dynamic) / float64(sz.PerPolicy["aggressive"])
		r.check(fmt.Sprintf("%s: multi-version growth small", name),
			growth < 1.6, "dynamic/aggressive = %.2f", growth)
	}
	r.Notes = append(r.Notes, "sizes are IR footprints (4 bytes/instruction word); shared subgraphs deduplicated as in §4.2")
	return r, nil
}
