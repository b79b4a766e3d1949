package interp

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
)

// Engine micro-benchmarks: each small OBL program is compiled once and
// run once per execution engine, so the bytecode VM's dispatch, call,
// extern, and lock paths read side by side with the reference
// interpreter's. The engine loops re-run complete interp.Run calls; under
// the vm engine the first call of a fresh process profiles and every
// later call executes the specialized module, so steady-state iterations
// measure the specialized tiers.

// benchDispatchSrc is pure register arithmetic and branching — no calls,
// no objects — so the loop body is dispatch overhead and nothing else.
const benchDispatchSrc = `
func main() {
  let s: int = 0;
  for i in 0..20000 {
    if i % 2 == 0 { s = s + i * 3; } else { s = s - i; }
  }
  print s;
}
`

// benchCallSrc stresses the call path: a method invocation (dynamic
// receiver, field reads) plus a plain function call per iteration, so
// frame push/pop and the register arena dominate.
const benchCallSrc = `
class Cell {
  v: float;
  method bump(x: float): float {
    this.v = this.v + x;
    return this.v;
  }
}
func twice(x: float): float { return x + x; }
func main() {
  let c: Cell = new Cell();
  let s: float = 0.0;
  for i in 0..8000 {
    s = s + twice(c.bump(1.0));
  }
  print s;
}
`

// benchExternSrc stresses OpCallExtern: the table-indexed intrinsic
// lookup and the folded static extern cost.
const benchExternSrc = `
extern sqrt(x: float): float cost 80;
func main() {
  let s: float = 0.0;
  for i in 0..10000 {
    s = s + sqrt(tofloat(i));
  }
  print s;
}
`

// benchLockSrc updates a shared accumulator object from a parallel
// section, so under the paper's original policy every iteration carries
// an acquire/release pair — the lock fast path plus the simulated
// machine's contention bookkeeping.
const benchLockSrc = `
extern work(n: int) cost 0;
class Acc { sum: float; }
func add(ms: Acc, cnt: int) {
  for i in 0..cnt {
    work(40);
    ms.sum = ms.sum + 1.0;
  }
}
func main() {
  let a: Acc = new Acc();
  add(a, 4000);
  print a.sum;
}
`

func benchEngines(b *testing.B, prog *ir.Program, opts Options) {
	for _, engine := range []string{EngineInterp, EngineVM} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			o := opts
			o.Engine = engine
			if engine == EngineVM {
				// Consume the profiling pass outside the timed loop.
				if _, err := Run(prog, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(prog, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineDispatch(b *testing.B) {
	c := compile(b, benchDispatchSrc)
	benchEngines(b, c.Serial, Options{Procs: 1})
}

func BenchmarkEngineCall(b *testing.B) {
	c := compile(b, benchCallSrc)
	benchEngines(b, c.Serial, Options{Procs: 1})
}

func BenchmarkEngineExtern(b *testing.B) {
	c := compile(b, benchExternSrc)
	benchEngines(b, c.Serial, Options{Procs: 1})
}

func BenchmarkEngineLockFastPath(b *testing.B) {
	c := compile(b, benchLockSrc)
	opts := Options{Procs: 4, Policy: "original"}
	if res, err := Run(c.Parallel, opts); err != nil || res.Counters.Acquires == 0 {
		b.Fatalf("lock benchmark executed no acquires (err %v)", err)
	}
	benchEngines(b, c.Parallel, opts)
}

// fusionCoverage weighs a program's specialized module by the profile
// that produced it. total is the number of instructions the profiled run
// dispatched in the functions name selects (all when empty), covered the
// part of them that the specialized module executes inside fused groups,
// and saved the dispatches those groups remove (Len-1 per execution). The
// program must have completed its first VM run. Every source instruction
// is counted once, in its own function's body: inlined copies carry the
// same groups and share the callee's counters.
func fusionCoverage(tb testing.TB, prog *ir.Program, name string) (covered, total, saved int64) {
	tb.Helper()
	e := vmModuleFor(prog)
	if e.err != nil {
		tb.Fatal(e.err)
	}
	spec, prof := e.spec.Load(), e.lastProf.Load()
	if spec == nil || prof == nil {
		tb.Fatal("first run did not specialize the module")
	}
	for _, fc := range spec.Funcs {
		if name != "" && fc.Name != name {
			continue
		}
		for pc := range fc.Code {
			src := &fc.Plain[pc]
			if int(src.SrcFn) != fc.ID {
				continue
			}
			n := prof.Counts[fc.ID][src.OrigPC]
			total += n
			if l := int64(fc.Code[pc].Len); l > 1 {
				covered += n * l
				saved += n * (l - 1)
			}
		}
	}
	if total == 0 {
		tb.Fatal("empty profile")
	}
	return covered, total, saved
}

// TestFusionCoverageBarnesHut pins what the superinstruction overlay buys
// on the workload it was shaped on, as exact counts from the profiling
// run: most of the tree descent executes inside fused groups, and the
// specialized module needs a quarter fewer dispatches than the baseline.
func TestFusionCoverageBarnesHut(t *testing.T) {
	c, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"nbodies": 64, "listlen": 16, "interwork": 500, "npasses": 1, "serialwork": 500}
	if _, err := Run(c.Parallel, Options{Procs: 1, Policy: "aggressive", Params: params}); err != nil {
		t.Fatal(err)
	}
	covered, total, _ := fusionCoverage(t, c.Parallel, "Body::walk@original")
	if covered*10 < total*6 {
		t.Errorf("Body::walk: %d of %d profiled instructions run fused (%.2f), want >= 0.6",
			covered, total, float64(covered)/float64(total))
	}
	_, total, saved := fusionCoverage(t, c.Parallel, "")
	if saved*4 < total {
		t.Errorf("specialized module: %d dispatches against %d unspecialized (-%.0f%%), want a drop of 25%% or more",
			total-saved, total, 100*float64(saved)/float64(total))
	}
}

// BenchmarkVMSuperinstructionHitRate times the specialized dispatch loop
// on the branch-heavy program and reports what fraction of the profiled
// instruction stream executes inside fused superinstructions — the
// profile-weighted coverage of the groups the specializer emitted.
func BenchmarkVMSuperinstructionHitRate(b *testing.B) {
	c := compile(b, benchDispatchSrc)
	if _, err := Run(c.Serial, Options{Procs: 1}); err != nil {
		b.Fatal(err)
	}
	covered, total, _ := fusionCoverage(b, c.Serial, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c.Serial, Options{Procs: 1}); err != nil {
			b.Fatal(err)
		}
	}
	// After ResetTimer: it deletes user-reported metrics.
	b.ReportMetric(float64(covered)/float64(total), "fused-instr-fraction")
}
