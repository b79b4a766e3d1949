package bench

import (
	"slices"
	"testing"
)

// TestSamplingValidationQuick runs the quick sampling tier end to end. Its
// claims are the report's checks: every cell's ground truth inside the
// estimator's intervals, sampling engaged on every cell, and the perturbed
// cell exercising the rollback path at least once. The share of iterations
// fast-forwarded is pinned (it is what makes the sampled side cheaper, and
// unlike host wall-clock it is deterministic).
func TestSamplingValidationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling tier runs full workloads")
	}
	e, _ := ExperimentByID("sampling")
	rep, err := e.Run(NewSuite(SuiteConfig{Quick: true}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failed() {
		t.Errorf("shape check failed: %s", f)
	}
	cells := samplingCells(true)
	if want := 2*len(cells) + 1; len(rep.Checks) != want {
		t.Errorf("%d checks, want %d: containment and engagement per cell, rollback on the perturbed one", len(rep.Checks), want)
	}
	if !slices.ContainsFunc(rep.Checks, func(c ShapeCheck) bool {
		return c.Name == "barneshut-crossover: the perturbed cell rolled back"
	}) {
		t.Error("no rollback check on the perturbed cell")
	}
	if want := "tier: fast-forwarded 8768 of 11520 iterations"; !slices.Contains(rep.Notes, want) {
		t.Errorf("notes %q lack %q", rep.Notes, want)
	}
	if len(rep.HostNotes) == 0 {
		t.Error("the wall-clock pair is not reported")
	}
}
