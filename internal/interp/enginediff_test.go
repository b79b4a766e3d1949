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
	"repro/internal/perturb"
	"repro/internal/simcache"
	"repro/oblc"
)

// The engine differential harness is the acceptance gate for the bytecode
// VM: across applications, builds, policies, perturbation scenarios, and
// the seeded-race corpus, the VM's full Result — virtual time, counters,
// output, section statistics, step count, and race findings — must encode
// byte-for-byte identically to the interpreter's.

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
// and requires both results to encode identically. It returns the
// reference result.
func assertEngineParity(t *testing.T, label string, prog *ir.Program, opts interp.Options) *interp.Result {
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
	return ref
}

// TestEngineByteIdenticalMatrix covers every application in both the
// multi-version and flag-dispatch builds, under each static policy and
// under dynamic feedback, with race detection on.
func TestEngineByteIdenticalMatrix(t *testing.T) {
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		builds := []struct {
			label string
			prog  *ir.Program
		}{{"parallel", c.Parallel}, {"flagged", c.Flagged}}
		for _, policy := range []string{"original", "bounded", "aggressive", interp.PolicyDynamic} {
			for _, build := range builds {
				label := fmt.Sprintf("%s %s/%s", name, build.label, policy)
				assertEngineParity(t, label, build.prog, interp.Options{
					Procs: 8, Policy: policy, DetectRaces: true,
					Params: engineDiffParams[name],
				})
			}
		}
	}
}

// TestEngineByteIdenticalUnderPerturbation reruns the dynamic-feedback
// cell of every application under each built-in environment-perturbation
// scenario. Parity must hold whether or not the schedule's changes land
// within the shortened run.
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
			label := fmt.Sprintf("%s under %s", name, scenario)
			assertEngineParity(t, label, c.Parallel, interp.Options{
				Procs: 8, Policy: interp.PolicyDynamic, AsyncSwitch: true,
				Perturb: sched, Params: engineDiffParams[name],
			})
		}
	}
}

// TestEngineByteIdenticalRaceFindings runs the seeded lock-elision corpus
// of the static/dynamic differential harness: each mutant must race, and
// the VM must report the exact same findings as the interpreter.
func TestEngineByteIdenticalRaceFindings(t *testing.T) {
	mutants := []struct {
		app    string
		region int
	}{
		{apps.NameWater, 0},
		{apps.NameWater, 6},
		{apps.NameString, 0},
		{apps.NameString, 1},
	}
	for _, m := range mutants {
		label := fmt.Sprintf("%s/region%d", m.app, m.region)
		src, err := apps.Source(m.app)
		if err != nil {
			t.Fatal(err)
		}
		u, _, err := analysis.BuildUnit(src)
		if err != nil {
			t.Fatal(err)
		}
		prog := u.PolicyProg(syncopt.Original)
		if err := analysis.ElideRegion(prog, m.region); err != nil {
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
		res := assertEngineParity(t, label, mutIR, interp.Options{
			Procs: 8, Policy: "original", DetectRaces: true,
			Params: engineDiffParams[m.app],
		})
		if len(res.Races) == 0 {
			t.Errorf("%s: seeded mutant executed race-free", label)
		}
	}
}

// TestUncompilableProgramRejected runs a program the bytecode compiler
// must reject (no register-kind annotations): the default engine returns
// the compile error, naming the function, instead of running it some other
// way; the oracle, which needs no register kinds, still executes it.
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
	ref, err := interp.Run(stripped, interp.Options{Procs: 1, Policy: "original", Engine: interp.EngineInterp})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Output) != 1 || ref.Output[0] != "45" {
		t.Fatalf("oracle output %q, want [45]", ref.Output)
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
