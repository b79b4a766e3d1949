package interp_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
)

// TestDroppedProgramsAreCollected runs compile–run–drop cycles of the three
// applications — what a fresh bench.Suite per pass does — and requires the
// post-GC heap to stay flat. A cycle builds everything this package derives
// from a program (load-time tables, fingerprint, VM module); all of it must
// go when the program does. Tables keyed by *ir.Program held 493 KB a cycle
// for the life of the process.
func TestDroppedProgramsAreCollected(t *testing.T) {
	cycle := func() {
		for _, name := range apps.Names {
			c, err := apps.Compile(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := interp.Options{Procs: 2, Policy: "original", Params: apps.TestParams(name)}
			if _, err := interp.Run(c.Parallel, opts); err != nil {
				t.Fatal(err)
			}
			if _, ok := interp.CacheKey(c.Parallel, opts); !ok {
				t.Fatal("cell is not cacheable")
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < 3; i++ {
		cycle() // pools, lazily built tables
	}
	const cycles = 10
	before := liveHeap()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	grown := liveHeap() - before
	t.Logf("live heap grew %d KB over %d cycles", grown>>10, cycles)
	if grown > cycles*(64<<10) {
		t.Fatalf("live heap grew %d KB over %d compile-run-drop cycles (%d KB a cycle): dropped programs are still reachable",
			grown>>10, cycles, grown>>10/cycles)
	}
}
