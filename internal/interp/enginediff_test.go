package interp_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obl/analysis"
	"repro/internal/obl/ir"
	"repro/internal/obl/lower"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
	"repro/internal/obl/vm"
	"repro/internal/perturb"
	"repro/internal/simcache"
	"repro/internal/simmach"
	"repro/oblc"
)

// The engine differential harness is the acceptance gate for the bytecode
// VM: across applications, builds, policies and perturbation scenarios,
// the VM's full Result — virtual time, counters, output, section
// statistics and step count — must encode byte-for-byte identically to
// the interpreter's. Race findings are the interpreter's alone: a
// race-detecting run is an oracle run under either engine setting.

// engineDiffParams shrinks each application so one differential cell takes
// milliseconds while still claiming iterations on all eight processors.
var engineDiffParams = map[string]map[string]int64{
	apps.NameBarnesHut: {"nbodies": 64, "listlen": 8, "interwork": 500, "npasses": 1, "serialwork": 500},
	apps.NameWater:     {"nmol": 32, "nsteps": 1, "energydepth": 1, "serialwork": 500},
	apps.NameString:    {"gridside": 12, "nrays": 48, "pathlen": 12, "nrounds": 1, "serialwork": 500},
}

func encodeResult(t *testing.T, res *interp.Result) []byte {
	t.Helper()
	b, err := simcache.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertEngineParity runs one cell under the interpreter and under the VM
// and requires both results to encode identically.
func assertEngineParity(t *testing.T, label string, prog *ir.Program, opts interp.Options) {
	t.Helper()
	opts.Engine = interp.EngineInterp
	ref, err := interp.Run(prog, opts)
	if err != nil {
		t.Fatalf("%s: interp engine: %v", label, err)
	}
	refBytes := encodeResult(t, ref)
	opts.Engine = interp.EngineVM
	res, err := interp.Run(prog, opts)
	if err != nil {
		t.Fatalf("%s: vm engine: %v", label, err)
	}
	if !bytes.Equal(refBytes, encodeResult(t, res)) {
		t.Fatalf("%s: vm engine result differs from interpreter", label)
	}
}

// TestEngineByteIdenticalMatrix covers every application's multi-version
// build under each static policy and under dynamic feedback: the VM takes
// uncontended releases ahead of the schedule, and the oracle still yields
// before each one. The flag-dispatch build has no VM side
// (TestFlaggedRunsOnTheOracle), and neither has a traced run
// (TestUncompilableProgramRejected).
func TestEngineByteIdenticalMatrix(t *testing.T) {
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"original", "bounded", "aggressive", interp.PolicyDynamic} {
			label := fmt.Sprintf("%s parallel/%s", name, policy)
			assertEngineParity(t, label, c.Parallel, interp.Options{Procs: 8, Policy: policy, Params: engineDiffParams[name]})
		}
	}
}

// TestFlaggedRunsOnTheOracle pins where flag dispatch (§4.2) runs: vm.Compile
// rejects every application's flag-dispatch build, yet a run of it under
// EngineVM succeeds and returns the oracle's Result byte for byte, because
// Run makes it an oracle run.
func TestFlaggedRunsOnTheOracle(t *testing.T) {
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"aggressive", interp.PolicyDynamic} {
			assertEngineParity(t, fmt.Sprintf("%s flagged/%s", name, policy), c.Flagged,
				interp.Options{Procs: 8, Policy: policy, Params: engineDiffParams[name]})
		}
	}
}

// TestEngineByteIdenticalUnderPerturbation reruns the dynamic-feedback
// cell of every application under each built-in environment-perturbation
// scenario. Parity must hold whether or not the schedule's changes land
// within the shortened run. Asynchronous switching has no VM side
// (TestUncompilableProgramRejected).
func TestEngineByteIdenticalUnderPerturbation(t *testing.T) {
	for _, scenario := range perturb.ScenarioNames() {
		sched, ok := perturb.Scenario(scenario)
		if !ok {
			t.Fatalf("unknown scenario %s", scenario)
		}
		for _, name := range apps.Names {
			c, err := apps.Compile(name)
			if err != nil {
				t.Fatal(err)
			}
			assertEngineParity(t, fmt.Sprintf("%s under %s", name, scenario), c.Parallel, interp.Options{
				Procs: 8, Policy: interp.PolicyDynamic, Perturb: sched, Params: engineDiffParams[name],
			})
		}
	}
}

// elided compiles src under the original policy with its n-th critical
// region elided: a program that races.
func elided(t *testing.T, src string, n int) *ir.Program {
	t.Helper()
	u, _, err := analysis.BuildUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := u.PolicyProg(syncopt.Original)
	if err := analysis.ElideRegion(prog, n); err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	b := lower.NewBuilder()
	if err := b.AddPolicy(info, string(syncopt.Original)); err != nil {
		t.Fatal(err)
	}
	mutIR, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return mutIR
}

// TestEngineByteIdenticalRaceFindingsInFieldGroup elides the lock around
// the second of two float field updates, each of which fuses into one
// ldfld.f+add.f+stfld.f group: the racy group, with its lock gone, must
// match the oracle's plain instructions. (Its race is the oracle's to
// find; a race-detecting run never reaches the group.)
func TestEngineByteIdenticalRaceFindingsInFieldGroup(t *testing.T) {
	prog := elided(t, `
extern work(n: int) cost 0;
class Acc { sum: float; }
func add(a: Acc, cnt: int) {
  for i in 0..cnt {
    work(40);
    let x: float = tofloat(i);
    a.sum = a.sum + x;
    let y: float = x * 0.5;
    a.sum = a.sum + y;
  }
}
func main() {
  let a: Acc = new Acc();
  add(a, 64);
  print a.sum;
}
`, 1)
	m, err := vm.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	for _, fc := range m.Funcs {
		for _, in := range fc.Code {
			if in.Op == vm.OpAddFieldF {
				groups++
			}
		}
	}
	if groups < 2 {
		t.Fatalf("%d field updates fused, want 2", groups)
	}
	assertEngineParity(t, "racy field group", prog, interp.Options{Procs: 4, Policy: "original"})
}

// TestEngineParityBudgetAfterRelease runs a section whose iterations
// release a lock and then compute for more than one dispatch's step
// budget: a release taken ahead must restart the budget exactly where the
// oracle's dispatch for that release starts it. The critical section is
// longer than a trip of spin's loop, so a budget restarted anywhere else
// moves some iteration's boundary across a trip and its step count.
func TestEngineParityBudgetAfterRelease(t *testing.T) {
	c, err := oblc.Compile(`
class Acc {
  sum: int;
  method add(v: int) {
    let t: int = v;
    for q in 0..24 {
      t = t + v % (q + 1);
    }
    this.sum = this.sum + t;
  }
}

func spin(k: int): int {
  let s: int = 0;
  for j in 0..k {
    s = s + j % 7;
  }
  return s;
}

func run(acc: Acc, n: int) {
  for i in 0..n {
    acc.add(i);
    acc.add(spin(1000 + i));
  }
}

func main() {
  let acc: Acc = new Acc();
  run(acc, 400);
  print acc.sum;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Parallel.Sections) == 0 {
		t.Fatal("no parallel section")
	}
	for _, procs := range []int{1, 3, 8} {
		assertEngineParity(t, fmt.Sprintf("procs=%d", procs), c.Parallel, interp.Options{Procs: procs, Policy: "original"})
	}
}

// TestUncompilableProgramRejected runs a program the bytecode compiler
// must reject (no register-kind annotations): the default engine returns
// the compile error, naming the function, instead of running it some other
// way. The oracle, which needs no register kinds, still executes it, and
// so does every run Run routes to the oracle under the VM engine: one that
// detects races, switches asynchronously or installs a trace.
func TestUncompilableProgramRejected(t *testing.T) {
	c, err := oblc.Compile(`
func main() {
  let s: int = 0;
  for i in 0..10 {
    s = s + i;
  }
  print s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	stripped := c.Serial
	for _, f := range stripped.Funcs {
		f.RegKinds = nil
	}
	_, err = interp.Run(stripped, interp.Options{Procs: 1, Policy: "original"})
	if err == nil || !strings.Contains(err.Error(), "main: no register kinds") {
		t.Fatalf("default engine on a program without register kinds: got %v, want vm.Compile's error", err)
	}
	for _, row := range []struct {
		name string
		opts interp.Options
	}{
		{"oracle", interp.Options{Procs: 1, Policy: "original", Engine: interp.EngineInterp}},
		{"races", interp.Options{Procs: 1, Policy: "original", Engine: interp.EngineVM, DetectRaces: true}},
		{"async", interp.Options{Procs: 1, Policy: interp.PolicyDynamic, Engine: interp.EngineVM, AsyncSwitch: true}},
		{"traced", interp.Options{Procs: 1, Policy: "original", Engine: interp.EngineVM, Trace: func(simmach.TraceEvent) {}}},
	} {
		ref, err := interp.Run(stripped, row.opts)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
		} else if len(ref.Output) != 1 || ref.Output[0] != "45" {
			t.Errorf("%s: output %q, want [45]", row.name, ref.Output)
		}
	}
}

// TestEngineUnknownRejected pins the engine option's validation.
func TestEngineUnknownRejected(t *testing.T) {
	c, err := apps.Compile(apps.NameWater)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(c.Serial, interp.Options{Procs: 1, Policy: "original", Engine: "jit"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}
