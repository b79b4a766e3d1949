package polgen_test

import (
	"reflect"
	"testing"

	"repro/internal/obl/polgen"
	"repro/internal/obl/syncopt"
)

// TestSpaceOrderAndNames pins the default space: 18 specs, coarsening
// level outermost ({1, 2, unbounded}), then lifting ({off, on}), then
// chunk ({1, 4, 16}), each with its own policy name.
func TestSpaceOrderAndNames(t *testing.T) {
	space := polgen.Space()
	want := []string{
		"g-c1-l0-k1", "g-c1-l0-k4", "g-c1-l0-k16", "g-c1-l1-k1", "g-c1-l1-k4", "g-c1-l1-k16",
		"g-c2-l0-k1", "g-c2-l0-k4", "g-c2-l0-k16", "g-c2-l1-k1", "g-c2-l1-k4", "g-c2-l1-k16",
		"g-cu-l0-k1", "g-cu-l0-k4", "g-cu-l0-k16", "g-cu-l1-k1", "g-cu-l1-k4", "g-cu-l1-k16",
	}
	if got := polgen.Names(space); !reflect.DeepEqual(got, want) {
		t.Fatalf("Space() names:\n got  %v\n want %v", got, want)
	}
	seen := map[string]bool{}
	for _, s := range space {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		seen[s.Name()] = true
	}
	if len(seen) != 18 {
		t.Errorf("%d distinct names over 18 specs", len(seen))
	}
	if first := space[0]; first != (polgen.Spec{Coarsen: 1, Chunk: 1}) {
		t.Errorf("first spec %+v, want coarsen 1, no lifting, chunk 1", first)
	}
}

// TestChunkZeroAndOneShareAName: both claim one iteration at a time, so
// they are one policy.
func TestChunkZeroAndOneShareAName(t *testing.T) {
	a, b := polgen.Spec{Coarsen: 2, Lift: true, Chunk: 0}, polgen.Spec{Coarsen: 2, Lift: true, Chunk: 1}
	if a.Name() != b.Name() {
		t.Errorf("chunk 0 is %q, chunk 1 is %q", a.Name(), b.Name())
	}
}

func TestValidateRejectsNegatives(t *testing.T) {
	for _, s := range []polgen.Spec{{Coarsen: -1}, {Chunk: -1}, {Coarsen: -2, Chunk: -4}} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated", s)
		}
	}
	if err := (polgen.Spec{}).Validate(); err != nil {
		t.Errorf("zero spec: %v", err)
	}
}

// TestSyncParams: the coarsening level is the coalescing bound, lifting is
// passed through, and the generated space never takes the Bounded policy's
// cycle guard (BoundedCycles stays false).
func TestSyncParams(t *testing.T) {
	for _, s := range append(polgen.Space(), polgen.Spec{Coarsen: 7, Chunk: 3}) {
		want := syncopt.Params{Transform: true, MaxCoalesce: s.Coarsen, Lift: s.Lift, ExpandCalls: true}
		if got := s.SyncParams(); got != want {
			t.Errorf("%s: SyncParams %+v, want %+v", s.Name(), got, want)
		}
	}
}
