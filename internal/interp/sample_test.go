package interp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/perturb"
	"repro/internal/simmach"
)

// phaseSrc is a single-section program whose per-iteration cost is a step
// function of the iteration index: iterations below cut run light work,
// the rest heavy. With cut beyond the trip count the workload is uniform
// (the extrapolation is near-exact); with cut inside a gap the trend
// mispredicts and the validation window must trigger a rollback.
const phaseSrc = `
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

// testSampleSpec is shrunk so sampling engages on test-scale trip counts.
func testSampleSpec() *SampleSpec {
	return &SampleSpec{WindowIters: 16, GapIters: 64, MinSectionIters: 64}
}

func encodeRes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSampledEstimateCloseOnUniformWorkload checks the extrapolation on a
// uniform workload, where the linear trend is near-exact: the sampled
// run's virtual time must land within a few percent of the exhaustive
// run's, while skipping the majority of iterations.
func TestSampledEstimateCloseOnUniformWorkload(t *testing.T) {
	c := compile(t, phaseSrc)
	opts := Options{Procs: 4, Policy: "bounded"}
	exact, err := Run(c.Parallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = testSampleSpec()
	samp, err := Run(c.Parallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if samp.Sampling == nil {
		t.Fatal("sampled run returned no SamplingInfo")
	}
	if samp.Sampling.SkippedIters == 0 {
		t.Fatal("sampling never skipped an iteration")
	}
	if samp.Sampling.SkippedIters < samp.Sampling.DetailedIters {
		t.Errorf("skipped %d < detailed %d; sampling is not saving work",
			samp.Sampling.SkippedIters, samp.Sampling.DetailedIters)
	}
	relErr := float64(samp.Time-exact.Time) / float64(exact.Time)
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 0.05 {
		t.Errorf("sampled time %v vs exact %v: relative error %.3f > 0.05",
			samp.Time, exact.Time, relErr)
	}
	if samp.Sampling.Rollbacks != 0 {
		t.Errorf("uniform workload rolled back %d times", samp.Sampling.Rollbacks)
	}
}

// TestSampledRollbackOnPhaseChange puts an abrupt cost step inside the
// sampled region: the gap that crosses it must fail validation, roll back,
// and re-execute in detail, keeping the estimate close.
func TestSampledRollbackOnPhaseChange(t *testing.T) {
	c := compile(t, phaseSrc)
	params := map[string]int64{"cut": 1536}
	opts := Options{Procs: 4, Policy: "bounded", Params: params}
	exact, err := Run(c.Parallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = testSampleSpec()
	samp, err := Run(c.Parallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if samp.Sampling.Rollbacks == 0 {
		t.Error("phase change inside a gap did not trigger a rollback")
	}
	relErr := float64(samp.Time-exact.Time) / float64(exact.Time)
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 0.15 {
		t.Errorf("sampled time %v vs exact %v: relative error %.3f > 0.15",
			samp.Time, exact.Time, relErr)
	}
}

// TestCheckpointHookByteIdentical drives the full-runtime checkpoint:
// snapshot at one claim point, keep executing, restore, and require the
// final Result to encode identically to an uninterrupted run — with and
// without environment perturbation, with the race detector's state
// included in the snapshot.
func TestCheckpointHookByteIdentical(t *testing.T) {
	scenarios := perturb.ScenarioNames()
	if len(scenarios) == 0 {
		t.Fatal("no perturbation scenarios registered")
	}
	sched, ok := perturb.Scenario(scenarios[0])
	if !ok {
		t.Fatal("scenario lookup failed")
	}
	c, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	for _, perturbed := range []bool{false, true} {
		opts := Options{
			Procs: 4, Policy: "original", DetectRaces: true,
			Params: apps.TestParams(apps.NameBarnesHut),
		}
		if perturbed {
			opts.Perturb = sched
		}
		want, err := Run(c.Parallel, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := encodeRes(t, want)
		// 10→60 stays inside the first section; 60→130 crosses into a
		// later section execution before restoring.
		for _, pts := range [][2]int64{{10, 60}, {60, 130}} {
			label := fmt.Sprintf("perturbed=%v/ck=%d,restore=%d", perturbed, pts[0], pts[1])
			hooked := opts
			hooked.ckHook = &ckHook{ckAt: pts[0], restoreAt: pts[1]}
			got, err := Run(c.Parallel, hooked)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !hooked.ckHook.restored {
				t.Fatalf("%s: restore point never reached", label)
			}
			if !bytes.Equal(wantBytes, encodeRes(t, got)) {
				t.Fatalf("%s: restored run result differs from uninterrupted run", label)
			}
		}
	}
}

// TestCheckpointHookOnSampledRun checkpoints and restores inside a sampled
// run — mid-window and across a gap — and requires byte-identity with the
// un-hooked sampled run, proving the sampler's own state restores exactly.
func TestCheckpointHookOnSampledRun(t *testing.T) {
	c := compile(t, phaseSrc)
	opts := Options{
		Procs: 4, Policy: "bounded",
		Params: map[string]int64{"cut": 1536},
		Sample: testSampleSpec(),
	}
	want, err := Run(c.Parallel, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := encodeRes(t, want)
	// Claim 40 is mid-window (windows are 16 iterations); claim 90 has
	// crossed at least one fast-forward gap.
	for _, pts := range [][2]int64{{40, 90}, {7, 200}} {
		label := fmt.Sprintf("ck=%d,restore=%d", pts[0], pts[1])
		hooked := opts
		hooked.ckHook = &ckHook{ckAt: pts[0], restoreAt: pts[1]}
		got, err := Run(c.Parallel, hooked)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !hooked.ckHook.restored {
			t.Fatalf("%s: restore point never reached", label)
		}
		if !bytes.Equal(wantBytes, encodeRes(t, got)) {
			t.Fatalf("%s: restored sampled run differs from uninterrupted sampled run", label)
		}
	}
}

// TestSampleOptionValidation pins the modes sampling must reject, and the
// cache-key exclusion of sampled and checkpoint-hooked runs.
func TestSampleOptionValidation(t *testing.T) {
	c := compile(t, phaseSrc)
	base := Options{Procs: 4, Sample: testSampleSpec()}

	dyn := base
	dyn.Policy = PolicyDynamic
	if _, err := Run(c.Parallel, dyn); err == nil {
		t.Error("sampled run with dynamic policy accepted")
	}
	raced := base
	raced.Policy = "bounded"
	raced.DetectRaces = true
	if _, err := Run(c.Parallel, raced); err == nil {
		t.Error("sampled run with race detection accepted")
	}
	traced := base
	traced.Policy = "bounded"
	traced.Trace = func(ev simmach.TraceEvent) {}
	if _, err := Run(c.Parallel, traced); err == nil {
		t.Error("sampled run with tracing accepted")
	}
	// The step interpreter is the exhaustive-run oracle: it neither samples
	// nor checkpoints.
	oracle := base
	oracle.Policy = "bounded"
	oracle.Engine = EngineInterp
	if _, err := Run(c.Parallel, oracle); err == nil {
		t.Error("sampled run under the interp engine accepted")
	}
	oracle.Sample, oracle.ckHook = nil, &ckHook{}
	if _, err := Run(c.Parallel, oracle); err == nil {
		t.Error("checkpoint-hooked run under the interp engine accepted")
	}

	if _, ok := CacheKey(c.Parallel, Options{Procs: 4, Policy: "bounded", Sample: testSampleSpec()}); ok {
		t.Error("sampled run got a cache key; estimates must not enter the cache")
	}
	if _, ok := CacheKey(c.Parallel, Options{Procs: 4, Policy: "bounded", ckHook: &ckHook{}}); ok {
		t.Error("checkpoint-hooked run got a cache key")
	}
	if _, ok := CacheKey(c.Parallel, Options{Procs: 4, Policy: "bounded"}); !ok {
		t.Error("plain run lost its cache key")
	}
}
