package interp

import (
	"reflect"
	"testing"

	"repro/internal/lint"
	"repro/internal/obl/ir"
	"repro/internal/simmach"
)

// TestNoallocAnnotationCoverage is the interp side of the static/dynamic
// allocation-gate bridge (see internal/simmach/noalloc_cover_test.go):
// the //dfvet:noalloc annotations here must stay in lockstep with the
// runtime assertion below, which drives every annotated function — the
// worker state machine and one dispatch loop per execution engine —
// through a dispatch-heavy loop and a parallel section.
func TestNoallocAnnotationCoverage(t *testing.T) {
	got, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"task.exec",          // EngineInterp dispatch loop (exec.go)
		"vmTask.exec",        // EngineVM dispatch loop (vmexec.go)
		"worker.Step",        // the one simmach.Process (interp.go)
		"worker.sectionStep", // claim / body / after-barrier phases (interp.go)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("//dfvet:noalloc set drifted from the runtime gate's coverage table:\n got %v\nwant %v\n"+
			"update TestSteadyStateAllocsPerStep (or this table) to match", got, want)
	}
}

// TestSteadyStateAllocsPerStep is the runtime half of the //dfvet:noalloc
// claim on the two dispatch loops and on the worker state machine they
// plug into. A Run has a fixed allocation budget (machine, procs, prep
// tables), so the per-step claim is checked by scaling: 100x more
// instructions in a serial loop, and 100x more iterations of a parallel
// section on 4 processors under a static and under the dynamic policy
// (claims, lock traffic, timer polls), must not allocate meaningfully
// more. If an annotated function allocated per instruction or per
// iteration, the long run would show tens of thousands of extra
// allocations; the bound admits only scheduler-level noise.
func TestSteadyStateAllocsPerStep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs repeated full executions; run without -short")
	}
	loop := compile(t, `
param n: int = 200;
func main() {
  let s: int = 0;
  for i in 0..n {
    if i % 2 == 0 { s = s + i * 3; } else { s = s - i; }
  }
  print s;
}
`)
	section := compile(t, `
extern work(n: int) cost 0;
param n: int = 200;
class Acc { sum: float; }
func add(ms: Acc, cnt: int) {
  for i in 0..cnt {
    work(40);
    ms.sum = ms.sum + 1.0;
  }
}
func main() {
  let a: Acc = new Acc();
  add(a, n);
  print a.sum;
}
`)
	cases := []struct {
		label string
		prog  *ir.Program
		opts  Options
	}{
		{"serial loop", loop.Serial, Options{Procs: 1}},
		{"section/original", section.Parallel, Options{Procs: 4, Policy: "original"}},
		// One sampling interval longer than either run: both lengths see the
		// same number of controller phases, so only per-iteration work scales.
		{"section/dynamic", section.Parallel, Options{Procs: 4, Policy: PolicyDynamic, TargetSampling: simmach.Second}},
	}
	for _, engine := range []string{EngineInterp, EngineVM} {
		t.Run(engine, func(t *testing.T) {
			for _, tc := range cases {
				measure := func(n int64) float64 {
					opts := tc.opts
					opts.Engine = engine
					opts.Params = map[string]int64{"n": n}
					// Warm the process: the first Run builds the program's
					// load-time tables and, under the vm engine, its module.
					if _, err := Run(tc.prog, opts); err != nil {
						t.Fatal(err)
					}
					return testing.AllocsPerRun(3, func() {
						if _, err := Run(tc.prog, opts); err != nil {
							t.Fatal(err)
						}
					})
				}
				shortAllocs, longAllocs := measure(200), measure(20000)
				if extra := longAllocs - shortAllocs; extra > 16 {
					t.Errorf("%s, %s: 100x more work cost %.0f extra allocs (short %.0f, long %.0f); "+
						"an annotated step function is allocating per instruction or iteration",
						engine, tc.label, extra, shortAllocs, longAllocs)
				}
			}
		})
	}
}
