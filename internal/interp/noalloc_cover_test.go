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
// worker state machine, one dispatch loop per execution engine and the
// VM loop's out-of-line handlers — through a dispatch-heavy loop, a loop
// of calls, a loop of linear recursions and a parallel section.
func TestNoallocAnnotationCoverage(t *testing.T) {
	got, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"iretN",              // an inlined callee's return (vmexec.go)
		"moveArgs",           // a call's argument moves (vmexec.go)
		"moveWithin",         // a tail call's or an inlined callee's argument moves (vmexec.go)
		"task.exec",          // EngineInterp dispatch loop (exec.go)
		"task.hostOp",        // its extern calls, new, newarr and print (exec.go)
		"task.sync",          // its acquire, release and section entry (exec.go)
		"vmTask.call",        // EngineVM's frame call (vmexec.go)
		"vmTask.callLinear",  // its linear recursion in one dispatch (vmexec.go)
		"vmTask.descend",     // its descent loop (vmexec.go)
		"vmTask.enter",       // its inlined-callee entry (vmexec.go)
		"vmTask.evalArm",     // a linear recursion's arms (vmexec.go)
		"vmTask.exec",        // EngineVM dispatch loop (vmexec.go)
		"vmTask.newArray",    // its newarr (vmexec.go)
		"vmTask.newObject",   // its new (vmexec.go)
		"vmTask.print",       // its print (vmexec.go)
		"vmTask.replay",      // its replay of collapsed tail calls' returns (vmexec.go)
		"vmTask.sync",        // its acquire, release and section entry (vmexec.go)
		"vmTask.tailCall",    // its self tail call (vmexec.go)
		"vmTask.vref",        // its field and element receivers (vmexec.go)
		"worker.Step",        // the one simmach.Process (interp.go)
		"worker.sectionStep", // claim / body / after-barrier phases (interp.go)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("//dfvet:noalloc set drifted from the runtime gate's coverage table:\n got %v\nwant %v\n"+
			"update TestSteadyStateAllocsPerStep (or this table) to match", got, want)
	}
}

// TestSteadyStateAllocsPerStep is the runtime half of the //dfvet:noalloc
// claim on the two dispatch loops, the VM loop's out-of-line handlers and
// the worker state machine they plug into. A Run has a fixed allocation
// budget (machine, procs, prep tables), so the per-step claim is checked
// by scaling: 100x more instructions in a serial loop, 100x more
// iterations of a serial loop of calls and of one of linear recursions,
// and 100x more iterations of a parallel section on 4 processors under a
// static and under the dynamic policy (claims, lock traffic, timer
// polls), must not allocate meaningfully more than the program's own new
// and newarr ask for. If an annotated function allocated per instruction
// or per iteration, the long run would show tens of thousands of extra
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
	// Each iteration makes a self tail call (count: tailCall, moveWithin,
	// replay), a spliced bisection descent (walk: enter, descend, iretN), an
	// extern call (force), a new and a newarr; the last two allocate what
	// the program asks for and nothing more.
	calls := compile(t, `
extern force(a: float, b: float): float cost 10;
param n: int = 200;
class Box { v: float; }
func count(i: int, s: int): int {
  if i <= 0 { return s; }
  return count(i - 1, s + i);
}
func walk(lo: int, hi: int, k: int): int {
  if hi - lo <= 1 { return lo; }
  let mid: int = (lo + hi) / 2;
  if k % 2 == 0 { return walk(lo, mid, k / 2); }
  return walk(mid, hi, k / 2);
}
func main() {
  let s: int = 0;
  let f: float = 0.0;
  for i in 0..n {
    s = s + count(20, 0) + walk(0, 256, i);
    f = f + force(2.0, 0.5);
    let b: Box = new Box();
    let a: int[] = new int[2];
    s = s + a[1];
    b.v = f;
  }
  print s;
  print f;
}
`)
	// Each iteration makes a linear recursion three levels deep in one
	// dispatch (callLinear, evalArm: term and force in each arm), and one
	// of 40 levels whose dispatch cannot admit it all at once: it runs in
	// frames (call), and their inner calls take the rest in one dispatch
	// when it fits.
	linear := compile(t, `
extern term(a: float, b: float): float cost 20;
extern force(a: float, b: float): float cost 10;
param n: int = 200;
func energy(a: float, b: float, k: int): float {
  if k <= 0 {
    return term(a, b) + force(b, a);
  }
  return term(a, b) * 0.5 + force(a, b) + energy(a, b, k - 1);
}
func main() {
  let f: float = 0.0;
  for i in 0..n {
    f = f + energy(1.5, 0.25, 3) + energy(0.5, 2.0, 400);
  }
  print f;
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
		own   float64 // the program's own allocations per iteration
	}{
		{"serial loop", loop.Serial, Options{Procs: 1}, 0},
		// An object and an array, each a header and its Value slice.
		{"serial calls", calls.Serial, Options{Procs: 1}, 4},
		{"serial linear recursion", linear.Serial, Options{Procs: 1}, 0},
		{"section/original", section.Parallel, Options{Procs: 4, Policy: "original"}, 0},
		// One sampling interval longer than either run: both lengths see the
		// same number of controller phases, so only per-iteration work scales.
		{"section/dynamic", section.Parallel, Options{Procs: 4, Policy: PolicyDynamic, TargetSampling: simmach.Second}, 0},
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
				if extra := longAllocs - shortAllocs - tc.own*(20000-200); extra > 16 {
					t.Errorf("%s, %s: 100x more work cost %.0f extra allocs (short %.0f, long %.0f); "+
						"an annotated step function is allocating per instruction or iteration",
						engine, tc.label, extra, shortAllocs, longAllocs)
				}
			}
		})
	}
}
