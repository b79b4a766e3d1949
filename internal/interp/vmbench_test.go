package interp

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
)

// Engine micro-benchmarks: each small OBL program is compiled once and
// run once per execution engine, so the bytecode VM's dispatch, call,
// extern, and lock paths read side by side with the reference
// interpreter's. The engine loops re-run complete interp.Run calls.

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
extern force(a: float, b: float): float cost 80;
func main() {
  let s: float = 0.0;
  for i in 0..10000 {
    s = s + force(tofloat(i), 0.5);
  }
  print s;
}
`

// benchLockSrc updates a shared accumulator object from a parallel
// section, so under the paper's original policy every iteration carries
// an acquire/release pair — the VM's lock path plus the simulated
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

func BenchmarkEngineLock(b *testing.B) {
	c := compile(b, benchLockSrc)
	opts := Options{Procs: 4, Policy: "original"}
	if res, err := Run(c.Parallel, opts); err != nil || res.Counters.Acquires == 0 {
		b.Fatalf("lock benchmark executed no acquires (err %v)", err)
	}
	benchEngines(b, c.Parallel, opts)
}

// BenchmarkEngineApps runs four of dfperf's cells (benchmark/simwl.go, at
// their unjittered parameters) under both engines: the Barnes-Hut cells of
// sim-compute, where dispatch is nearly all the host work, and a Water and
// a String cell of sim-sync, where the machine's lock traffic is most of
// it. Every dfperf set-up runs its cells on the oracle for the reference
// digests, so the interp rows are what that set-up pays per cell.
func BenchmarkEngineApps(b *testing.B) {
	bh := map[string]int64{"nbodies": 224, "listlen": 64, "interwork": 20000, "npasses": 1, "serialwork": 50000}
	water := map[string]int64{"nmol": 144, "nsteps": 1, "serialwork": 30000}
	str := map[string]int64{"gridside": 40, "nrays": 320, "pathlen": 64, "nrounds": 1, "serialwork": 30000}
	for _, cell := range []struct {
		name, app string
		opts      Options
	}{
		{"barneshut-aggressive-p8", apps.NameBarnesHut, Options{Procs: 8, Policy: "aggressive", Params: bh}},
		{"barneshut-bounded-p16", apps.NameBarnesHut, Options{Procs: 16, Policy: "bounded", Params: bh}},
		{"water-original-p16", apps.NameWater, Options{Procs: 16, Policy: "original", Params: water}},
		{"string-original-p8", apps.NameString, Options{Procs: 8, Policy: "original", Params: str}},
	} {
		b.Run(cell.name, func(b *testing.B) {
			c, err := apps.Compile(cell.app)
			if err != nil {
				b.Fatal(err)
			}
			benchEngines(b, c.Parallel, cell.opts)
		})
	}
}

// fusionCoverage counts the slots of a program's module. total is the
// number of source instructions in the functions name selects (all when
// empty), covered the part of them inside fused groups, and saved the
// dispatches those groups remove (Len-1 each). Every source instruction is
// counted once, in its own function's body: inlined copies carry the same
// groups.
func fusionCoverage(tb testing.TB, prog *ir.Program, name string) (covered, total, saved int) {
	tb.Helper()
	for _, fc := range moduleOf(tb, prog).Funcs {
		if name != "" && fc.Name != name {
			continue
		}
		for pc := range fc.Code {
			if int(fc.Src[pc].Fn) != fc.ID {
				continue
			}
			total++
			if l := int(fc.Code[pc].Len); l > 1 {
				covered += l
				saved += l - 1
			}
		}
	}
	if total == 0 {
		tb.Fatalf("no function named %q", name)
	}
	return covered, total, saved
}

// TestFusionCoverageBarnesHut pins what the superinstruction overlay covers
// on the workload it was shaped on, as exact static slot counts: the share
// of the tree descent that sits inside fused groups, and the dispatches the
// groups remove from one straight-line pass over the module. The tree
// descent's head is the descent loop, in its own function and in every
// splice of it, whose entry is fused with the head.
func TestFusionCoverageBarnesHut(t *testing.T) {
	c, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	splices := 0
	for _, fc := range moduleOf(t, c.Parallel).Funcs {
		if fc.Name == "Body::walk@original" && (fc.Code[0].Op != vm.OpDescend || fc.Code[0].Len != 4) {
			t.Errorf("Body::walk: head is %v len %d, want %v len 4", fc.Code[0].Op, fc.Code[0].Len, vm.OpDescend)
		}
		for pc, in := range fc.Code {
			if in.Op != vm.OpEnterDescend {
				continue
			}
			splices++
			if in.Len != 5 || fc.Code[pc+1].Op != vm.OpDescend || fc.Plain[pc].Op != vm.OpCallEnter {
				t.Errorf("%s: pc %d: entry %v len %d before %v", fc.Name, pc, in.Op, in.Len, fc.Code[pc+1].Op)
			}
		}
	}
	// One walk call site in each of the three versions of interactions.
	if splices != 3 {
		t.Errorf("%d splices of the tree descent open with its head, want 3", splices)
	}
	if covered, total, _ := fusionCoverage(t, c.Parallel, "Body::walk@original"); covered != 19 || total != 23 {
		t.Errorf("Body::walk: %d of %d slots inside fused groups, want 19 of 23", covered, total)
	}
	if _, total, saved := fusionCoverage(t, c.Parallel, ""); saved != 75 || total != 265 {
		t.Errorf("module: groups remove %d of %d dispatches, want 75 of 265", saved, total)
	}
}

// BenchmarkVMSuperinstructionHitRate times the dispatch loop on the
// branch-heavy program and reports what fraction of its slots sit inside
// fused superinstructions.
func BenchmarkVMSuperinstructionHitRate(b *testing.B) {
	c := compile(b, benchDispatchSrc)
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
