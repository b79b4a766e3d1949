package bench

import (
	"testing"
)

// TestSamplingValidationQuick runs the quick sampling tier end to end:
// every cell's ground truth must land inside the estimator's intervals,
// the share of iterations fast-forwarded is pinned (it is what makes the
// sampled side cheaper, and unlike host wall-clock it is deterministic),
// and the perturbed cell must exercise the rollback path at least once.
func TestSamplingValidationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling tier runs full workloads")
	}
	sj, err := SamplingValidation(SuiteConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sj.AllContained {
		t.Log(sj.Format())
		t.Error("ground truth escaped a confidence interval")
	}
	var skipped, detailed int64
	for _, cell := range sj.Cells {
		skipped += cell.Report.Estimate.SkippedIters
		detailed += cell.Report.Estimate.DetailedIters
		if cell.Report.SkipRatio < 0.4 {
			t.Errorf("%s: skip ratio %.2f < 0.4; sampling barely engaged", cell.Label, cell.Report.SkipRatio)
		}
		if cell.Scenario != "" && cell.Report.Estimate.Rollbacks == 0 {
			t.Errorf("%s: perturbed cell triggered no rollback; the phase change was never detected", cell.Label)
		}
	}
	if skipped != 8768 || detailed != 2752 {
		t.Errorf("quick tier fast-forwarded %d of %d iterations, want 8768 of 11520", skipped, skipped+detailed)
	}
	if sj.Speedup <= 1 {
		t.Errorf("quick tier: sampling did not beat exhaustive simulation (%.2fx)", sj.Speedup)
	}
}
