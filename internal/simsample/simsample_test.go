package simsample

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/simmach"
	"repro/oblc"
)

// stepSrc has a per-iteration cost step at cut, exercising the rollback
// path; with the default cut the workload is uniform.
const stepSrc = `
extern work(n: int) cost 0;
extern noise(i: int): float cost 60;

param total: int = 4096;
param cut: int = 99999999;
param light: int = 300;
param heavy: int = 4000;

class Slot {
  sum: float;
  count: float;
  method step(me: int, cut: int, light: int, heavy: int) {
    if me < cut {
      work(light);
    } else {
      work(heavy);
    }
    this.sum = this.sum + noise(me);
    this.count = this.count + 1.0;
  }
}

func sweep(slots: Slot[], n: int, cut: int, light: int, heavy: int) {
  for i in 0..n {
    slots[i].step(i, cut, light, heavy);
  }
}

func main() {
  let slots: Slot[] = new Slot[total];
  for i in 0..total {
    slots[i] = new Slot();
  }
  sweep(slots, total, cut, light, heavy);
  let s: float = 0.0;
  for i in 0..total {
    s = s + slots[i].sum + slots[i].count;
  }
  print s;
}
`

func testSpec() *interp.SampleSpec {
	return &interp.SampleSpec{WindowIters: 16, GapIters: 64, MinSectionIters: 64}
}

// TestValidateContainment checks the end-to-end promise on a matrix of
// workloads: every ground-truth metric lands inside its interval, and a
// majority of iterations are skipped.
func TestValidateContainment(t *testing.T) {
	appParams := map[string]map[string]int64{
		apps.NameBarnesHut: {"nbodies": 512, "listlen": 4, "interwork": 2000, "npasses": 1, "serialwork": 500},
		apps.NameWater:     {"nmol": 96, "nsteps": 1, "energydepth": 1, "serialwork": 500},
		apps.NameString:    {"gridside": 12, "nrays": 512, "pathlen": 4, "nrounds": 1, "serialwork": 500},
	}
	cases := []struct {
		label  string
		src    string
		params map[string]int64
	}{
		{"uniform", stepSrc, nil},
		{"step", stepSrc, map[string]int64{"cut": 1536}},
	}
	for _, name := range apps.Names {
		src, err := apps.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			label  string
			src    string
			params map[string]int64
		}{name, src, appParams[name]})
	}
	for _, tc := range cases {
		c, err := oblc.Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Validate(c.Parallel, interp.Options{
			Procs: 8, Policy: "bounded", Params: tc.params, Sample: testSpec(),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if !rep.AllContained {
			for _, m := range rep.Estimate.Metrics {
				t.Logf("%s: %s est %.0f [%.0f, %.0f] ground %.0f contained=%v",
					tc.label, m.Name, m.Value, m.Lo, m.Hi, rep.Ground[m.Name], rep.Contained[m.Name])
			}
			t.Errorf("%s: ground truth escaped a confidence interval", tc.label)
		}
		if rep.SkipRatio < 0.4 {
			t.Errorf("%s: skip ratio %.2f < 0.4; sampling barely engaged", tc.label, rep.SkipRatio)
		}
	}
}

// TestFromResultErrors pins the input validation.
func TestFromResultErrors(t *testing.T) {
	if _, err := FromResult(&interp.Result{}, 4); err == nil {
		t.Error("unsampled result accepted")
	}
	if _, err := Validate(nil, interp.Options{}); err == nil {
		t.Error("Validate without Sample accepted")
	}
}

// TestEstimateIntervalShape checks the error model directly on synthetic
// windows: noisy residuals must widen the interval above the relative
// floor, and the floor must hold when residuals vanish.
func TestEstimateIntervalShape(t *testing.T) {
	mkRes := func(busies []int64) *interp.Result {
		sec := &interp.SectionSampling{Name: "S", SkippedIters: 1000}
		for i, b := range busies {
			sec.Windows = append(sec.Windows, interp.WindowStat{
				Exec: 0, Start: int64(i * 20), Iters: 10, Busy: simmach.Time(b),
			})
		}
		return &interp.Result{
			Time: 1_000_000, Sampling: &interp.SamplingInfo{Sections: []*interp.SectionSampling{sec}},
		}
	}
	flat, err := FromResult(mkRes([]int64{1000, 1000, 1000, 1000, 1000}), 4)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := FromResult(mkRes([]int64{1000, 2000, 800, 2400, 600}), 4)
	if err != nil {
		t.Fatal(err)
	}
	fm, nm := flat.Metric("time_ns"), noisy.Metric("time_ns")
	if fm == nil || nm == nil {
		t.Fatal("time_ns metric missing")
	}
	floorHalf := 0.02 * fm.Value
	if got := fm.Hi - fm.Value; got != floorHalf {
		t.Errorf("flat windows: half = %.0f, want floor %.0f", got, floorHalf)
	}
	if got := nm.Hi - nm.Value; got <= floorHalf {
		t.Errorf("noisy windows: half = %.0f did not exceed the floor %.0f", got, floorHalf)
	}
}
