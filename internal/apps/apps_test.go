package apps

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/interp"
	"repro/internal/simmach"
)

func TestSourceLookup(t *testing.T) {
	for _, n := range Names {
		if _, err := Source(n); err != nil {
			t.Errorf("Source(%s): %v", n, err)
		}
	}
	if _, err := Source("nope"); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Compile("nope"); err == nil {
		t.Error("Compile of unknown app accepted")
	}
	if TestParams("nope") != nil || SectionNames("nope") != nil || ParamBounds("nope") != nil {
		t.Error("unknown app returned presets")
	}
}

// TestParamBoundsCoverPresets requires a bound for every parameter an
// application declares, and every preset within its bounds.
func TestParamBoundsCoverPresets(t *testing.T) {
	for _, n := range Names {
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		bounds := ParamBounds(n)
		if len(bounds) != len(c.Parallel.ParamNames) {
			t.Errorf("%s: bounds for %d parameters, the program declares %v", n, len(bounds), c.Parallel.ParamNames)
		}
		for _, name := range c.Parallel.ParamNames {
			if _, ok := bounds[name]; !ok {
				t.Errorf("%s: no bound for parameter %q", n, name)
			}
		}
		for _, preset := range []map[string]int64{TestParams(n), c.Parallel.Params} {
			for k, v := range preset {
				if r := bounds[k]; v < r.Min || v > r.Max {
					t.Errorf("%s: preset %s = %d outside its bounds [%d, %d]", n, k, v, r.Min, r.Max)
				}
			}
		}
	}
}

func TestAllAppsCompile(t *testing.T) {
	for _, n := range Names {
		c, err := Compile(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		// Every candidate section must be found and parallelized.
		var names []string
		for _, sec := range c.Parallel.Sections {
			names = append(names, sec.Name)
		}
		want := SectionNames(n)
		if len(names) != len(want) {
			t.Fatalf("%s sections = %v, want %v", n, names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Errorf("%s section %d = %s, want %s", n, i, names[i], want[i])
			}
		}
	}
}

func TestSectionVersionStructure(t *testing.T) {
	// The policy-version structure must match the paper's reports (§6).
	cases := []struct {
		app      string
		section  string
		versions int
		merged   [][2]string // policy pairs that must share a version
		distinct [][2]string // policy pairs that must differ
	}{
		{NameBarnesHut, "FORCES", 3, nil,
			[][2]string{{"original", "bounded"}, {"bounded", "aggressive"}}},
		{NameBarnesHut, "ADVANCEALL", 2,
			[][2]string{{"bounded", "aggressive"}},
			[][2]string{{"original", "bounded"}}},
		{NameWater, "INTERF", 2,
			[][2]string{{"bounded", "aggressive"}},
			[][2]string{{"original", "bounded"}}},
		{NameWater, "POTENG", 2,
			[][2]string{{"original", "bounded"}},
			[][2]string{{"bounded", "aggressive"}}},
		{NameString, "BACKPROJECT", 2,
			[][2]string{{"bounded", "aggressive"}},
			[][2]string{{"original", "bounded"}}},
	}
	compiled := map[string]*struct {
		secs map[string]map[string]int
		nver map[string]int
	}{}
	for _, n := range Names {
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		entry := &struct {
			secs map[string]map[string]int
			nver map[string]int
		}{secs: map[string]map[string]int{}, nver: map[string]int{}}
		for _, sec := range c.Parallel.Sections {
			entry.secs[sec.Name] = sec.PolicyVersion
			entry.nver[sec.Name] = len(sec.Versions)
		}
		compiled[n] = entry
	}
	for _, tc := range cases {
		e := compiled[tc.app]
		pv := e.secs[tc.section]
		if pv == nil {
			t.Errorf("%s: no section %s", tc.app, tc.section)
			continue
		}
		if got := e.nver[tc.section]; got != tc.versions {
			t.Errorf("%s %s: versions = %d, want %d", tc.app, tc.section, got, tc.versions)
		}
		for _, pair := range tc.merged {
			if pv[pair[0]] != pv[pair[1]] {
				t.Errorf("%s %s: %s and %s not merged", tc.app, tc.section, pair[0], pair[1])
			}
		}
		for _, pair := range tc.distinct {
			if pv[pair[0]] == pv[pair[1]] {
				t.Errorf("%s %s: %s and %s wrongly merged", tc.app, tc.section, pair[0], pair[1])
			}
		}
	}
}

func parseFloats(t *testing.T, out []string) []float64 {
	t.Helper()
	vals := make([]float64, len(out))
	for i, s := range out {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("output %q not numeric", s)
		}
		vals[i] = v
	}
	return vals
}

func TestAppsParallelCorrectness(t *testing.T) {
	// For every app, all policies and dynamic feedback at several processor
	// counts must compute the serial results (up to reassociation of the
	// commuting float reductions).
	for _, n := range Names {
		n := n
		t.Run(n, func(t *testing.T) {
			c, err := Compile(n)
			if err != nil {
				t.Fatal(err)
			}
			params := TestParams(n)
			sres, err := interp.Run(c.Serial, interp.Options{Params: params})
			if err != nil {
				t.Fatal(err)
			}
			want := parseFloats(t, sres.Output)
			for _, policy := range []string{"original", "bounded", "aggressive", interp.PolicyDynamic} {
				for _, procs := range []int{1, 3, 8} {
					res, err := interp.Run(c.Parallel, interp.Options{
						Procs: procs, Policy: policy, Params: params,
						TargetSampling: simmach.Millisecond,
					})
					if err != nil {
						t.Fatalf("%s/%d: %v", policy, procs, err)
					}
					got := parseFloats(t, res.Output)
					if len(got) != len(want) {
						t.Fatalf("%s/%d: output %v, want %v", policy, procs, got, want)
					}
					for i := range want {
						if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
							t.Errorf("%s/%d: out[%d] = %v, want %v", policy, procs, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// midParams returns an intermediate scale: large enough for the paper's
// qualitative shapes, small enough for unit tests.
func midParams(name string) map[string]int64 {
	switch name {
	case NameBarnesHut:
		return map[string]int64{"nbodies": 256, "listlen": 48, "interwork": 20000, "npasses": 1, "serialwork": 10000}
	case NameWater:
		return map[string]int64{"nmol": 128, "nsteps": 1, "serialwork": 8000}
	case NameString:
		return map[string]int64{"gridside": 16, "nrays": 256, "pathlen": 32, "nrounds": 1, "serialwork": 8000}
	}
	return nil
}

func TestBarnesHutShape(t *testing.T) {
	c, err := Compile(NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	params := midParams(NameBarnesHut)
	times := map[string]float64{}
	acquires := map[string]int64{}
	for _, policy := range []string{"original", "bounded", "aggressive"} {
		res, err := interp.Run(c.Parallel, interp.Options{Procs: 8, Policy: policy, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		times[policy] = res.Time.Seconds()
		acquires[policy] = res.Counters.Acquires
	}
	// Aggressive must clearly win Barnes-Hut (Table 2).
	if !(times["aggressive"] < times["bounded"] && times["bounded"] < times["original"]) {
		t.Errorf("BH time ordering wrong: %v", times)
	}
	// Locking ratios: Original ≈ 2× Bounded ≫ Aggressive (Table 3).
	if r := float64(acquires["original"]) / float64(acquires["bounded"]); r < 1.8 || r > 2.2 {
		t.Errorf("original/bounded acquires = %.2f, want ≈2 (%v)", r, acquires)
	}
	if acquires["aggressive"]*20 > acquires["bounded"] {
		t.Errorf("aggressive acquires %d not ≪ bounded %d", acquires["aggressive"], acquires["bounded"])
	}
}

func TestWaterShape(t *testing.T) {
	c, err := Compile(NameWater)
	if err != nil {
		t.Fatal(err)
	}
	params := midParams(NameWater)
	run := func(policy string, procs int) *interp.Result {
		res, err := interp.Run(c.Parallel, interp.Options{
			Procs: procs, Policy: policy, Params: params,
			TargetSampling: 2 * simmach.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// At 1 processor Aggressive is best (least locking, no contention) —
	// Table 7's first column.
	a1, b1, o1 := run("aggressive", 1), run("bounded", 1), run("original", 1)
	if !(a1.Time < b1.Time && b1.Time < o1.Time) {
		t.Errorf("1-proc ordering wrong: agg %v bnd %v orig %v", a1.Time, b1.Time, o1.Time)
	}
	// At 8 processors Aggressive collapses from false exclusion and Bounded
	// wins (Table 7, Figure 6).
	a8, b8 := run("aggressive", 8), run("bounded", 8)
	if float64(b8.Time)*1.5 > float64(a8.Time) {
		t.Errorf("8-proc: bounded %v not clearly ahead of aggressive %v", b8.Time, a8.Time)
	}
	// Aggressive's failure mode is waiting, not locking (Figure 7).
	if a8.Counters.WaitTime < 2*a8.Counters.LockTime {
		t.Errorf("aggressive 8-proc wait %v vs lock %v", a8.Counters.WaitTime, a8.Counters.LockTime)
	}
	// Dynamic adapts: near-best at both processor counts.
	d1 := run(interp.PolicyDynamic, 1)
	d8 := run(interp.PolicyDynamic, 8)
	if float64(d1.Time) > 1.35*float64(a1.Time) {
		t.Errorf("dynamic@1 %v too far from best %v", d1.Time, a1.Time)
	}
	// Sampling the serializing Aggressive version is the dominant sampling
	// cost (the paper makes the same observation for POTENG, Table 12); at
	// this reduced scale it bounds how close Dynamic can get.
	if float64(d8.Time) > 1.6*float64(b8.Time) {
		t.Errorf("dynamic@8 %v too far from best %v", d8.Time, b8.Time)
	}
}

func TestStringShape(t *testing.T) {
	c, err := Compile(NameString)
	if err != nil {
		t.Fatal(err)
	}
	params := midParams(NameString)
	times := map[string]float64{}
	acquires := map[string]int64{}
	for _, policy := range []string{"original", "bounded"} {
		res, err := interp.Run(c.Parallel, interp.Options{Procs: 8, Policy: policy, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		times[policy] = res.Time.Seconds()
		acquires[policy] = res.Counters.Acquires
	}
	// Coalescing halves the per-visit lock traffic and wins.
	if r := float64(acquires["original"]) / float64(acquires["bounded"]); r < 1.7 {
		t.Errorf("original/bounded acquires = %.2f, want ≈2", r)
	}
	if times["bounded"] >= times["original"] {
		t.Errorf("bounded %v not faster than original %v", times["bounded"], times["original"])
	}
}

func TestDynamicProductionPolicyPerSection(t *testing.T) {
	// Water: the best policy differs per section — INTERF's best version is
	// the merged bounded/aggressive one, POTENG's is original/bounded. The
	// controller must choose accordingly (the paper's central claim).
	c, err := Compile(NameWater)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(c.Parallel, interp.Options{
		Procs: 8, Policy: interp.PolicyDynamic, Params: midParams(NameWater),
		TargetSampling: 2 * simmach.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"INTERF": "bounded/aggressive",
		"POTENG": "original/bounded",
	}
	for _, sec := range res.Sections {
		var prod string
		for _, s := range sec.Samples {
			if s.Kind == "production" {
				prod = s.Label
				break
			}
		}
		if prod == "" {
			for _, s := range sec.Samples {
				if s.Kind == "partial" {
					prod = s.Label
				}
			}
		}
		if w := want[sec.Name]; w != "" && prod != w {
			t.Errorf("%s production version = %q, want %q (samples: %+v)", sec.Name, prod, w, sec.Samples)
		}
	}
}

func TestOverheadMonotoneAcrossPolicies(t *testing.T) {
	// §4.5: locking overhead never increases and waiting overhead never
	// decreases from Original toward Aggressive. Checked on Water at 8
	// procs, the contended case.
	c, err := Compile(NameWater)
	if err != nil {
		t.Fatal(err)
	}
	params := midParams(NameWater)
	var lockT, waitT []simmach.Time
	for _, policy := range []string{"original", "bounded", "aggressive"} {
		res, err := interp.Run(c.Parallel, interp.Options{Procs: 8, Policy: policy, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		lockT = append(lockT, res.Counters.LockTime)
		waitT = append(waitT, res.Counters.WaitTime)
	}
	if !(lockT[0] >= lockT[1] && lockT[1] >= lockT[2]) {
		t.Errorf("locking time not nonincreasing: %v", lockT)
	}
	if !(waitT[0] <= waitT[2]) {
		t.Errorf("waiting time not increasing toward aggressive: %v", waitT)
	}
}

func TestSamplesStableOverTime(t *testing.T) {
	// Figures 5/8/9: measured overheads stay relatively stable over time.
	// Run Barnes-Hut FORCES with small intervals and check that, per
	// version, sampled overheads have small spread.
	c, err := Compile(NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	params := midParams(NameBarnesHut)
	params["npasses"] = 2
	res, err := interp.Run(c.Parallel, interp.Options{
		Procs: 8, Policy: interp.PolicyDynamic, Params: params,
		TargetSampling: simmach.Millisecond, TargetProduction: 20 * simmach.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range res.Sections {
		if sec.Name != "FORCES" {
			continue
		}
		byVersion := map[string][]float64{}
		for _, s := range sec.Samples {
			if s.Kind == "sampling" {
				byVersion[s.Label] = append(byVersion[s.Label], s.Overhead)
			}
		}
		if len(byVersion) < 3 {
			t.Fatalf("sampled versions = %d, want 3 (%v)", len(byVersion), byVersion)
		}
		for label, overs := range byVersion {
			if len(overs) < 2 {
				continue
			}
			lo, hi := overs[0], overs[0]
			for _, o := range overs {
				lo = math.Min(lo, o)
				hi = math.Max(hi, o)
			}
			if hi-lo > 0.25 {
				t.Errorf("%s overhead unstable: spread %.3f (%v)", label, hi-lo, overs)
			}
		}
	}
}

func TestCodeSizesTable1Shape(t *testing.T) {
	// Table 1: multi-version code growth over a single-policy build is
	// modest.
	for _, n := range Names {
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		sz := c.Sizes()
		agg := sz.PerPolicy["aggressive"]
		if sz.Dynamic <= agg {
			t.Errorf("%s: dynamic %d not larger than aggressive %d", n, sz.Dynamic, agg)
		}
		if float64(sz.Dynamic) > 1.6*float64(agg) {
			t.Errorf("%s: dynamic %d more than 1.6× aggressive %d — growth should be small", n, sz.Dynamic, agg)
		}
	}
}

// TestGoldenOutputs pins the applications' computed results at test scale:
// the physics is deterministic, so any change to evaluation order, extern
// semantics or lowering that alters results is caught here.
func TestGoldenOutputs(t *testing.T) {
	want := map[string][]string{}
	for _, n := range Names {
		c, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := interp.Run(c.Serial, interp.Options{Params: TestParams(n)})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res.Output
		// Re-running must give byte-identical output.
		res2, err := interp.Run(c.Serial, interp.Options{Params: TestParams(n)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Output {
			if res.Output[i] != res2.Output[i] {
				t.Errorf("%s: output not deterministic: %q vs %q", n, res.Output[i], res2.Output[i])
			}
		}
		if len(res.Output) != 3 {
			t.Errorf("%s: output lines = %d, want 3", n, len(res.Output))
		}
	}
}
