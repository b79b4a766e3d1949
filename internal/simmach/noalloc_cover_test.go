package simmach

import (
	"reflect"
	"testing"

	"repro/internal/lint"
)

// TestNoallocAnnotationCoverage ties the static and dynamic allocation
// gates together. The //dfvet:noalloc annotations in this package are
// checked statically by dfvet's noalloc analyzer; the runtime side of the
// same claim is TestSteadyStateAllocsPerEvent, whose benchmarks drive
// every function below through dispatch, contended handoff, barrier
// rendezvous, and uncontended acquire/release. If an annotation is added
// or removed without revisiting the runtime gate (or this table), the set
// comparison fails and names the drift.
func TestNoallocAnnotationCoverage(t *testing.T) {
	got, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	// Each entry maps to the TestSteadyStateAllocsPerEvent case that
	// exercises it at runtime.
	want := []string{
		"Lock.enqueue",       // contended-handoff-16
		"Lock.grant",         // contended-handoff-16
		"Machine.Run",        // every case
		"Machine.push",       // every case
		"Machine.wake",       // contended-handoff-16, barrier-rendezvous-16
		"Proc.Acquire",       // contended-handoff-16, uncontended, uncontended-pair-ahead-16
		"Proc.BarrierArrive", // barrier-rendezvous-16
		"Proc.Release",       // contended-handoff-16, uncontended
		"Proc.ReleaseAhead",  // uncontended-pair-ahead-16
		"runQueue.fix",       // none: SetClock on a queued processor, never per event (TestReadyQueueModel)
		"runQueue.pop",       // every case
		"runQueue.push",      // every case
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("//dfvet:noalloc set drifted from the runtime gate's coverage table:\n got %v\nwant %v\n"+
			"update TestSteadyStateAllocsPerEvent (or this table) to match", got, want)
	}
}
