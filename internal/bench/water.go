package bench

import (
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/simmach"
)

// Table7 reproduces the Water execution times.
func Table7(s *Suite) (*Report, error) {
	r, t, err := timesReport(s, "table7", "Execution Times for Water (virtual seconds)", apps.NameWater)
	if err != nil {
		return nil, err
	}
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
	return r, nil
}

// Figure6 reproduces the Water speedup curves.
func Figure6(s *Suite) (*Report, error) {
	r, t, maxP, err := speedupReport(s, "figure6", "Speedups for Water", apps.NameWater)
	if err != nil {
		return nil, err
	}
	spB, spA := t.speedup("bounded", maxP), t.speedup("aggressive", maxP)
	r.check("bounded scales, aggressive plateaus", spB > 2*spA,
		"bounded %.1f vs aggressive %.1f at %d procs", spB, spA, maxP)
	return r, nil
}

// Table8 reproduces the Water locking overhead table.
func Table8(s *Suite) (*Report, error) {
	r, pairs, err := lockingReport(s, "table8", "Locking Overhead for Water", apps.NameWater)
	if err != nil {
		return nil, err
	}
	r.check("pair counts decrease original → bounded → aggressive",
		pairs["original"] > pairs["bounded"] && pairs["bounded"] > pairs["aggressive"],
		"%d > %d > %d", pairs["original"], pairs["bounded"], pairs["aggressive"])
	r.check("dynamic pairs close to bounded (its production choice)",
		pairs["dynamic"] < pairs["original"],
		"dynamic %d vs original %d", pairs["dynamic"], pairs["original"])
	return r, nil
}

// Figure7 reproduces the Water waiting-proportion curves: the proportion of
// total processor time spent waiting to acquire locks, per version and
// processor count. It is the figure that identifies false exclusion as the
// cause of Aggressive's poor performance.
func Figure7(s *Suite) (*Report, error) {
	r := &Report{ID: "figure7", Title: "Waiting Proportion for Water",
		XLabel: "processors", YLabel: "waiting proportion"}
	statics := policyRows[:3]
	var specs []RunSpec
	for _, policy := range statics {
		for _, p := range s.cfg.Procs {
			specs = append(specs, RunSpec{App: apps.NameWater, Opts: interp.Options{Procs: p, Policy: policy}})
		}
	}
	results, err := s.Runs(specs)
	if err != nil {
		return nil, err
	}
	prop := map[string]map[int]float64{}
	for i, policy := range statics {
		prop[policy] = map[int]float64{}
		ser := Series{Name: policy}
		for j, p := range s.cfg.Procs {
			res := results[i*len(s.cfg.Procs)+j]
			w := float64(res.Counters.WaitTime) / (float64(res.Time) * float64(p))
			prop[policy][p] = w
			ser.X = append(ser.X, float64(p))
			ser.Y = append(ser.Y, w)
		}
		r.Series = append(r.Series, ser)
	}
	maxP := s.cfg.Procs[len(s.cfg.Procs)-1]
	r.check("aggressive waiting dominates at scale",
		prop["aggressive"][maxP] > 0.4,
		"aggressive waiting proportion %.2f at %d procs", prop["aggressive"][maxP], maxP)
	r.check("aggressive waits far more than bounded",
		prop["aggressive"][8] > 3*prop["bounded"][8],
		"agg %.3f vs bnd %.3f at 8 procs", prop["aggressive"][8], prop["bounded"][8])
	r.check("waiting grows with processors (aggressive)",
		prop["aggressive"][maxP] > prop["aggressive"][2],
		"%.3f at %d vs %.3f at 2", prop["aggressive"][maxP], maxP, prop["aggressive"][2])
	return r, nil
}

// Figure8 is the INTERF overhead time series. The compiler generates the
// same code for Bounded and Aggressive here, so the sampling phases execute
// only two versions (§6.2).
func Figure8(s *Suite) (*Report, error) {
	r, err := overheadSeries(s, "figure8",
		"Sampled Overhead for the Water INTERF Section on 8 Processors",
		apps.NameWater, "INTERF")
	if err != nil {
		return nil, err
	}
	r.check("only two versions sampled (bounded ≡ aggressive)",
		len(r.Series) == 2, "versions: %d", len(r.Series))
	return r, nil
}

// Figure9 is the POTENG overhead time series; Original and Bounded share
// code here, and Aggressive's overhead is dramatically higher (§6.2).
func Figure9(s *Suite) (*Report, error) {
	r, err := overheadSeries(s, "figure9",
		"Sampled Overhead for the Water POTENG Section on 8 Processors",
		apps.NameWater, "POTENG")
	if err != nil {
		return nil, err
	}
	r.check("only two versions sampled (original ≡ bounded)",
		len(r.Series) == 2, "versions: %d", len(r.Series))
	mean := seriesMeans(r.Series)
	r.check("aggressive overhead dramatically higher",
		mean["aggressive"] > mean["original/bounded"]+0.3,
		"means %v", mean)
	return r, nil
}

// Table9 is the INTERF section statistics.
func Table9(s *Suite) (*Report, error) {
	return sectionStats(s, "table9", "Statistics for the Water INTERF Section",
		apps.NameWater, "INTERF", "bounded")
}

// Table10 is the POTENG section statistics.
func Table10(s *Suite) (*Report, error) {
	return sectionStats(s, "table10", "Statistics for the Water POTENG Section",
		apps.NameWater, "POTENG", "bounded")
}

// Table11 is the INTERF minimum effective sampling intervals.
func Table11(s *Suite) (*Report, error) {
	r, means, err := minSamplingIntervals(s, "table11",
		"Mean Minimum Effective Sampling Intervals for INTERF (8 processors)",
		apps.NameWater, "INTERF")
	if err != nil {
		return nil, err
	}
	// Both versions comparable to iteration sizes (Table 11).
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
	return r, nil
}

// Table12 is the POTENG minimum effective sampling intervals; the
// Aggressive version's is much larger because it serializes the
// computation, inflating the time until every processor reaches the switch
// barrier (§4.1, §6.2).
func Table12(s *Suite) (*Report, error) {
	r, means, err := minSamplingIntervals(s, "table12",
		"Mean Minimum Effective Sampling Intervals for POTENG (8 processors)",
		apps.NameWater, "POTENG")
	if err != nil {
		return nil, err
	}
	agg, ob := means["aggressive"], means["original/bounded"]
	r.check("aggressive interval much larger (serialization)",
		agg > 3*ob, "aggressive %v vs original/bounded %v", agg, ob)
	return r, nil
}

// Table13 is the INTERF interval grid.
func Table13(s *Suite) (*Report, error) {
	r, grid, err := intervalGrid(s, "table13",
		"Mean Execution Times for Varying Intervals, INTERF (8 processors, virtual seconds)",
		apps.NameWater, "INTERF")
	if err != nil {
		return nil, err
	}
	lo, hi := gridRange(grid)
	// INTERF versions perform similarly, so all combinations are close
	// (Table 13).
	r.check("all combinations yield similar performance",
		float64(hi) < 1.35*float64(lo), "worst %.3fs best %.3fs", hi.Seconds(), lo.Seconds())
	return r, nil
}

// Table14 is the POTENG interval grid; sensitivity is higher because the
// version performance gap is dramatic (Table 14's discussion).
func Table14(s *Suite) (*Report, error) {
	r, grid, err := intervalGrid(s, "table14",
		"Mean Execution Times for Varying Intervals, POTENG (8 processors, virtual seconds)",
		apps.NameWater, "POTENG")
	if err != nil {
		return nil, err
	}
	// Longer production intervals never hurt; short production with long
	// sampling is the bad corner (the paper's discussion).
	worstShort := grid[len(grid)-1][0]
	bestLong := grid[0][len(grid[0])-1]
	r.check("short production + long sampling is the bad corner",
		worstShort >= bestLong,
		"sampling=100ms/production=100ms: %.3fs vs sampling=1ms/production=10s: %.3fs",
		worstShort.Seconds(), bestLong.Seconds())
	return r, nil
}
