package bench

import (
	"fmt"
	"slices"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/simmach"
)

// The paper's §6 reports the same seven measurements for Barnes-Hut and for
// Water: execution times, speedups, locking overhead, the sampled-overhead
// series, section statistics, minimum effective sampling intervals and the
// interval grid. Each is one builder below, parameterized by application
// and section, that fills the report and hands what it measured to that
// table's shape checks — one named function per table, paired with its
// builder in the registry (Experiments).

// policyRows is the fan-out of the per-version tables and of every
// adaptivity experiment: the three static policies plus the dynamic
// controller, in report order.
var policyRows = []string{"original", "bounded", "aggressive", interp.PolicyDynamic}

// table1 reproduces the executable code sizes.
func table1(s *Suite, r *Report) error {
	r.Header = []string{"Application", "Version", "Size (bytes)"}
	for _, name := range apps.Names {
		c, err := s.App(name)
		if err != nil {
			return err
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
	return nil
}

// appTimes is one application's execution times: the serial baseline and
// each version at each configured processor count.
type appTimes struct {
	serial *interp.Result
	cells  cellGrid
}

func (t appTimes) sec(policy string, p int) float64 { return t.cells[policy][p].Time.Seconds() }

func (t appTimes) speedup(policy string, p int) float64 {
	return t.serial.Time.Seconds() / t.sec(policy, p)
}

// withTimes hands fill one application's execution times: the serial
// baseline and its four versions at every configured processor count,
// simulated in one fan-out.
func withTimes(app string, fill func(s *Suite, r *Report, t appTimes)) body {
	return func(s *Suite, r *Report) error {
		lead, cells, err := s.policyGrid(app, interp.Options{}, policyRows, s.cfg.Procs, RunSpec{App: app, Prog: progSerial})
		if err != nil {
			return err
		}
		fill(s, r, appTimes{serial: lead[0], cells: cells})
		return nil
	}
}

// timesTable builds the Table 2/7-style execution-time table.
func timesTable(app string, checks func(r *Report, t appTimes)) body {
	return withTimes(app, func(s *Suite, r *Report, t appTimes) {
		r.Header = []string{"Version"}
		for _, p := range s.cfg.Procs {
			r.Header = append(r.Header, fmt.Sprintf("%d", p))
		}
		serialRow := []string{"Serial", fsec(t.serial.Time)}
		for range s.cfg.Procs[1:] {
			serialRow = append(serialRow, "")
		}
		r.Rows = append(r.Rows, serialRow)
		for _, policy := range policyRows {
			row := []string{policy}
			for _, p := range s.cfg.Procs {
				row = append(row, fsec(t.cells[policy][p].Time))
			}
			r.Rows = append(r.Rows, row)
		}
		checks(r, t)
	})
}

// speedupFigure builds the Figure 4/6 speedup curves; checks reads them at
// the largest processor count.
func speedupFigure(app string, checks func(r *Report, t appTimes, maxP int)) body {
	return withTimes(app, func(s *Suite, r *Report, t appTimes) {
		r.XLabel, r.YLabel = "processors", "speedup vs serial"
		for _, policy := range policyRows {
			ser := Series{Name: policy}
			for _, p := range s.cfg.Procs {
				ser.X = append(ser.X, float64(p))
				ser.Y = append(ser.Y, t.speedup(policy, p))
			}
			r.Series = append(r.Series, ser)
		}
		checks(r, t, s.cfg.Procs[len(s.cfg.Procs)-1])
	})
}

// lockingTable builds the Table 3/8 locking-overhead table — executed
// acquire/release pairs and absolute locking overhead per version, on
// 8-processor runs (the paper's Dynamic numbers come from one) — and hands
// checks the pair counts.
func lockingTable(app string, checks func(r *Report, pairs map[string]int64)) body {
	return func(s *Suite, r *Report) error {
		_, cells, err := s.policyGrid(app, interp.Options{}, policyRows, []int{8})
		if err != nil {
			return err
		}
		r.Header = []string{"Version", "Acquire/Release Pairs", "Locking Overhead (s)"}
		pairs := map[string]int64{}
		for _, policy := range policyRows {
			c := cells[policy][8].Counters
			pairs[policy] = c.Acquires
			r.Rows = append(r.Rows, []string{policy, fmt.Sprintf("%d", c.Acquires), fsec(c.LockTime)})
		}
		checks(r, pairs)
		return nil
	}
}

// overheadFigure builds the Figure 5/8/9 time series of sampled overheads
// for one section of an app, using small target intervals, and checks that
// each version's overhead stays relatively stable over time (the paper's
// observation for all three applications) before the figure's own checks.
func overheadFigure(app, sectionName string, checks func(r *Report)) body {
	return func(s *Suite, r *Report) error {
		sec, err := s.runSection(app, sectionName, interp.Options{
			Procs: 8, Policy: interp.PolicyDynamic,
			TargetSampling:   2 * simmach.Millisecond,
			TargetProduction: 60 * simmach.Millisecond,
		})
		if err != nil {
			return err
		}
		r.XLabel, r.YLabel = "execution time (s)", "sampled overhead"
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
		for _, ser := range r.Series {
			if len(ser.Y) < 2 {
				continue
			}
			lo, hi := slices.Min(ser.Y), slices.Max(ser.Y)
			r.check(fmt.Sprintf("%s overhead stable", ser.Name), hi-lo < 0.3,
				"spread %.3f over %d samples", hi-lo, len(ser.Y))
		}
		checks(r)
		return nil
	}
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

// meanExecution returns the mean duration of a section's executions.
func meanExecution(sec *interp.SectionStats) simmach.Time {
	var total simmach.Time
	for _, e := range sec.Executions {
		total += e.End - e.Start
	}
	return total / simmach.Time(len(sec.Executions))
}

// meanIteration returns the mean busy time of a section's loop iterations.
func meanIteration(sec *interp.SectionStats) simmach.Time {
	return sec.Busy / simmach.Time(sec.Iterations)
}

// sectionTable builds the Table 4/9/10-style statistics for a section,
// measured on a one-processor run of the given (least-synchronized) static
// version: the closest observable stand-in for the paper's serial-version
// numbers.
func sectionTable(app, sectionName, policy string) body {
	return func(s *Suite, r *Report) error {
		sec, err := s.runSection(app, sectionName, interp.Options{Procs: 1, Policy: policy})
		if err != nil {
			return err
		}
		meanSection, meanIter := meanExecution(sec), meanIteration(sec)
		r.Header = []string{"Mean Section Size", "Number of Iterations", "Mean Iteration Size"}
		r.Rows = append(r.Rows, []string{
			fsec(meanSection) + " s", fmt.Sprintf("%d", sec.Iterations/int64(len(sec.Executions))), fms(meanIter) + " ms",
		})
		r.Notes = append(r.Notes, fmt.Sprintf("measured on a 1-processor %s run (stand-in for the serial version)", policy))
		r.check("iterations small relative to section",
			meanIter*20 < meanSection,
			"iteration %v vs section %v", meanIter, meanSection)
		return nil
	}
}

// minIntervalTable builds the Table 5/11/12-style mean minimum effective
// sampling interval table: with the target sampling interval set to
// (effectively) zero, every actual sampling interval has the minimum
// effective length determined by iteration granularity and the switch
// barrier (§4.1). checks gets the per-version means.
func minIntervalTable(app, sectionName string, checks func(s *Suite, r *Report, means map[string]simmach.Time) error) body {
	return func(s *Suite, r *Report) error {
		sec, err := s.runSection(app, sectionName, interp.Options{
			Procs: 8, Policy: interp.PolicyDynamic,
			TargetSampling:   1, // one nanosecond: expire at the first poll
			TargetProduction: 50 * simmach.Millisecond,
		})
		if err != nil {
			return err
		}
		means := meanSampleInterval(sec)
		r.Header = []string{"Version", "Mean Minimum Effective Sampling Interval (ms)"}
		for _, label := range sortedKeys(means) {
			r.Rows = append(r.Rows, []string{label, fms(means[label])})
		}
		return checks(s, r, means)
	}
}

// intervalGrid builds the Table 6/13/14-style sensitivity grid: mean
// section execution times for combinations of target sampling and
// production intervals. The grid is scaled ~10:1 from the paper's, since
// the miniature sections are ~10× shorter than the originals. checks gets
// the grid, sampling-major.
func intervalGrid(app, sectionName string, checks func(r *Report, grid [][]simmach.Time)) body {
	return func(s *Suite, r *Report) error {
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
			return err
		}
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
					return fmt.Errorf("bench: no section %s", sectionName)
				}
				mean := meanExecution(sec)
				grid[i] = append(grid[i], mean)
				row = append(row, fsec(mean))
			}
			r.Rows = append(r.Rows, row)
		}
		r.Notes = append(r.Notes, "grid scaled ~10:1 from the paper's (sections are ~10× shorter here)")
		checks(r, grid)
		return nil
	}
}

// gridRange returns the best and worst cell of an interval grid.
func gridRange(grid [][]simmach.Time) (lo, hi simmach.Time) {
	cells := slices.Concat(grid...)
	return slices.Min(cells), slices.Max(cells)
}

// table2 checks the Barnes-Hut execution times.
func table2(r *Report, t appTimes) {
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
}

// figure4 checks the Barnes-Hut speedup curves.
func figure4(r *Report, t appTimes, maxP int) {
	spAgg, spOrig := t.speedup("aggressive", maxP), t.speedup("original", maxP)
	r.check("aggressive scales", spAgg > float64(maxP)/3,
		"speedup %.1f at %d procs", spAgg, maxP)
	r.check("versions scale at similar rates (no significant false exclusion)",
		spOrig > 0.5*spAgg*t.sec("aggressive", 1)/t.sec("original", 1)*0.5,
		"orig %.1f vs agg %.1f at %d procs", spOrig, spAgg, maxP)
}

// table3 checks the Barnes-Hut locking overhead.
func table3(r *Report, pairs map[string]int64) {
	ratio := float64(pairs["original"]) / float64(pairs["bounded"])
	r.check("original ≈ 2× bounded pairs", ratio > 1.8 && ratio < 2.2, "ratio %.2f", ratio)
	r.check("aggressive pairs negligible", pairs["aggressive"]*20 < pairs["bounded"],
		"aggressive %d vs bounded %d", pairs["aggressive"], pairs["bounded"])
	r.check("dynamic pairs close to best (production uses aggressive)",
		pairs["dynamic"] < pairs["bounded"]/2,
		"dynamic %d vs bounded %d", pairs["dynamic"], pairs["bounded"])
}

// figure5 checks that the FORCES overheads order original > bounded >
// aggressive.
func figure5(r *Report) {
	mean := seriesMeans(r.Series)
	r.check("overhead ordering original > bounded > aggressive",
		mean["original"] > mean["bounded"] && mean["bounded"] > mean["aggressive"],
		"means %v", mean)
}

// table5 checks that the FORCES minimum intervals are comparable in size to
// the mean loop iteration Table 4 measures.
func table5(s *Suite, r *Report, means map[string]simmach.Time) error {
	sec, err := s.runSection(apps.NameBarnesHut, "FORCES", interp.Options{Procs: 1, Policy: "aggressive"})
	if err != nil {
		return err
	}
	iter := meanIteration(sec)
	for _, label := range sortedKeys(means) {
		m := means[label]
		r.check(fmt.Sprintf("%s interval ≥ iteration and same order of magnitude", label),
			m >= iter && m < 40*iter,
			"interval %v vs iteration %v", m, iter)
	}
	return nil
}

// table6 checks the paper's "performance is relatively insensitive to the
// variation in the target sampling and production intervals" (within ~20%)
// on FORCES.
func table6(r *Report, grid [][]simmach.Time) {
	lo, hi := gridRange(grid)
	r.check("performance insensitive to interval choice",
		float64(hi) < 1.45*float64(lo),
		"worst %.3fs vs best %.3fs", hi.Seconds(), lo.Seconds())
}

// table7 checks the Water execution times.
func table7(r *Report, t appTimes) {
	at := t.sec
	r.check("aggressive best at 1 processor",
		at("aggressive", 1) < at("bounded", 1) && at("bounded", 1) < at("original", 1),
		"agg %.2f < bnd %.2f < orig %.2f", at("aggressive", 1), at("bounded", 1), at("original", 1))
	r.check("aggressive fails to scale (false exclusion)",
		at("aggressive", 8) > 1.5*at("bounded", 8),
		"agg %.2f vs bnd %.2f at 8 procs", at("aggressive", 8), at("bounded", 8))
	r.check("bounded best at 8 processors",
		at("bounded", 8) <= at("original", 8) && at("bounded", 8) < at("aggressive", 8),
		"bnd %.2f orig %.2f agg %.2f", at("bounded", 8), at("original", 8), at("aggressive", 8))
	r.check("dynamic close to bounded at 8 processors",
		at("dynamic", 8) < 1.3*at("bounded", 8),
		"dynamic %.2f vs bounded %.2f (paper: within ~3%%)", at("dynamic", 8), at("bounded", 8))
}

// figure6 checks the Water speedup curves.
func figure6(r *Report, t appTimes, maxP int) {
	spB, spA := t.speedup("bounded", maxP), t.speedup("aggressive", maxP)
	r.check("bounded scales, aggressive plateaus", spB > 2*spA,
		"bounded %.1f vs aggressive %.1f at %d procs", spB, spA, maxP)
}

// table8 checks the Water locking overhead.
func table8(r *Report, pairs map[string]int64) {
	r.check("pair counts decrease original → bounded → aggressive",
		pairs["original"] > pairs["bounded"] && pairs["bounded"] > pairs["aggressive"],
		"%d > %d > %d", pairs["original"], pairs["bounded"], pairs["aggressive"])
	r.check("dynamic pairs close to bounded (its production choice)",
		pairs["dynamic"] < pairs["original"],
		"dynamic %d vs original %d", pairs["dynamic"], pairs["original"])
}

// figure7 reproduces the Water waiting-proportion curves: the proportion of
// total processor time spent waiting to acquire locks, per static version
// and processor count. It is the figure that identifies false exclusion as
// the cause of Aggressive's poor performance.
func figure7(s *Suite, r *Report) error {
	statics := policyRows[:3]
	_, cells, err := s.policyGrid(apps.NameWater, interp.Options{}, statics, s.cfg.Procs)
	if err != nil {
		return err
	}
	r.XLabel, r.YLabel = "processors", "waiting proportion"
	wait := func(policy string, p int) float64 {
		res := cells[policy][p]
		return float64(res.Counters.WaitTime) / (float64(res.Time) * float64(p))
	}
	for _, policy := range statics {
		ser := Series{Name: policy}
		for _, p := range s.cfg.Procs {
			ser.X = append(ser.X, float64(p))
			ser.Y = append(ser.Y, wait(policy, p))
		}
		r.Series = append(r.Series, ser)
	}
	maxP := s.cfg.Procs[len(s.cfg.Procs)-1]
	r.check("aggressive waiting dominates at scale",
		wait("aggressive", maxP) > 0.4,
		"aggressive waiting proportion %.2f at %d procs", wait("aggressive", maxP), maxP)
	r.check("aggressive waits far more than bounded",
		wait("aggressive", 8) > 3*wait("bounded", 8),
		"agg %.3f vs bnd %.3f at 8 procs", wait("aggressive", 8), wait("bounded", 8))
	// Growth is read between the largest count and the smallest simulated
	// one with more than one processor; with no count in between there is
	// nothing to compare.
	if i := slices.IndexFunc(s.cfg.Procs, func(p int) bool { return p > 1 }); i >= 0 && s.cfg.Procs[i] < maxP {
		minP := s.cfg.Procs[i]
		r.check("waiting grows with processors (aggressive)",
			wait("aggressive", maxP) > wait("aggressive", minP),
			"%.3f at %d vs %.3f at %d", wait("aggressive", maxP), maxP, wait("aggressive", minP), minP)
	}
	return nil
}

// figure8 checks the INTERF overhead series. The compiler generates the
// same code for Bounded and Aggressive here, so the sampling phases execute
// only two versions (§6.2).
func figure8(r *Report) {
	r.check("only two versions sampled (bounded ≡ aggressive)",
		len(r.Series) == 2, "versions: %d", len(r.Series))
}

// figure9 checks the POTENG overhead series; Original and Bounded share
// code here, and Aggressive's overhead is dramatically higher (§6.2).
func figure9(r *Report) {
	r.check("only two versions sampled (original ≡ bounded)",
		len(r.Series) == 2, "versions: %d", len(r.Series))
	mean := seriesMeans(r.Series)
	r.check("aggressive overhead dramatically higher",
		mean["aggressive"] > mean["original/bounded"]+0.3,
		"means %v", mean)
}

// table11 checks that both INTERF versions' minimum intervals are
// comparable to iteration sizes.
func table11(_ *Suite, r *Report, means map[string]simmach.Time) error {
	var lo, hi simmach.Time
	for _, m := range means {
		if lo == 0 || m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	r.check("both versions comparable", float64(hi) < 4*float64(lo),
		"range %v .. %v", lo, hi)
	return nil
}

// table12 checks the POTENG minimum intervals: the Aggressive version's is
// much larger because it serializes the computation, inflating the time
// until every processor reaches the switch barrier (§4.1, §6.2).
func table12(_ *Suite, r *Report, means map[string]simmach.Time) error {
	agg, ob := means["aggressive"], means["original/bounded"]
	r.check("aggressive interval much larger (serialization)",
		agg > 3*ob, "aggressive %v vs original/bounded %v", agg, ob)
	return nil
}

// table13 checks the INTERF grid: its versions perform similarly, so all
// combinations are close.
func table13(r *Report, grid [][]simmach.Time) {
	lo, hi := gridRange(grid)
	r.check("all combinations yield similar performance",
		float64(hi) < 1.35*float64(lo), "worst %.3fs best %.3fs", hi.Seconds(), lo.Seconds())
}

// table14 checks the POTENG grid, whose sensitivity is higher because the
// version performance gap is dramatic: longer production intervals never
// hurt, and short production with long sampling is the bad corner (the
// paper's discussion of Table 14).
func table14(r *Report, grid [][]simmach.Time) {
	worstShort := grid[len(grid)-1][0]
	bestLong := grid[0][len(grid[0])-1]
	r.check("short production + long sampling is the bad corner",
		worstShort >= bestLong,
		"sampling=100ms/production=100ms: %.3fs vs sampling=1ms/production=10s: %.3fs",
		worstShort.Seconds(), bestLong.Seconds())
}

// stringTimes checks String at the level the truncated §6.3 permits: the
// paper-wide claims on its execution times, speedups and locking pairs.
func stringTimes(r *Report, t appTimes) {
	r.Notes = append(r.Notes,
		"the paper's §6.3 text was unavailable in our source; these rows record our measurements and check only the paper-wide claims")
	origPairs, bndPairs := t.cells["original"][8].Counters.Acquires, t.cells["bounded"][8].Counters.Acquires
	at8 := func(p string) float64 { return t.sec(p, 8) }
	r.check("coalescing wins (bounded/aggressive beat original)",
		at8("bounded") < at8("original"),
		"bounded %.2f vs original %.2f", at8("bounded"), at8("original"))
	r.check("dynamic comparable to best policy",
		at8("dynamic") < 1.3*min(at8("original"), at8("bounded"), at8("aggressive")),
		"dynamic %.2f", at8("dynamic"))
	r.check("locking pairs halve under coalescing",
		float64(origPairs) > 1.7*float64(bndPairs),
		"original %d vs bounded %d", origPairs, bndPairs)
	sp := t.speedup("bounded", 8)
	r.check("application scales", sp > 4, "8-proc speedup %.1f", sp)
}
