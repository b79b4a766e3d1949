package interp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
)

// linearSrc declares f(a, b, k), whose body is %s, and the externs the
// bodies call.
const linearSrc = `
extern term(a: float, b: float): float cost 200;
extern force(a: float, b: float): float cost 10;
extern noise(i: int): float cost 60;
extern work(n: int) cost 0;
func f(a: float, b: float, k: int): float {
%s
}
func main() {
  print f(1.0, 2.0, 3);
}
`

// linearVariants are the bodies of f: two shapes a linear-recursion plan
// accepts (Water's energy, and a pending value added after the result
// with a step of 3, another limit and another extern in the base arm),
// and near-misses it refuses: a pending value that depends on k, a
// parameter other than k that changes, a step that is not constant, a
// work call in the recursive arm, and a step away from the limit (which
// recurses until the call-depth check faults).
var linearVariants = []struct {
	label, body string
	plan        bool
}{
	{"energy", `  if k <= 0 { return term(a, b); }
  return term(a, b) * 0.5 + f(a, b, k - 1);`, true},
	{"r + x, step 3", `  if k <= 2 { return force(a, a) - b; }
  let x: float = term(b, a) / 3.0;
  return f(a, b, k - 3) + x;`, true},
	{"x depends on k", `  if k <= 0 { return term(a, b); }
  return noise(k) + f(a, b, k - 1);`, false},
	{"a parameter changes", `  if k <= 0 { return term(a, b); }
  return term(a, b) * 0.5 + f(b, a, k - 1);`, false},
	{"step not constant", `  if k <= 0 { return term(a, b); }
  return term(a, b) * 0.5 + f(a, b, k - k / 2 - 1);`, false},
	{"work in an arm", `  if k <= 0 { return term(a, b); }
  work(50);
  return term(a, b) * 0.5 + f(a, b, k - 1);`, false},
	{"step away from the limit", `  if k <= 0 { return term(a, b); }
  return term(a, b) + f(a, b, k + 1);`, false},
}

// linearCompiled holds each variant's compiled program, which
// linearProgram only reads.
var linearCompiled = make([]*ir.Program, len(linearVariants))

// linearProgram is variant v's program with main replaced by pre nops,
// the call f(a, b, k), post nops and a print of the result: main runs
// pre+post+6 instructions besides f's.
func linearProgram(tb testing.TB, v int, pre, post int, a, b float64, k int64) *ir.Program {
	tb.Helper()
	if linearCompiled[v] == nil {
		linearCompiled[v] = compile(tb, fmt.Sprintf(linearSrc, linearVariants[v].body)).Serial
	}
	c := linearCompiled[v]
	code := make([]ir.Instr, 0, pre+post+6)
	for range pre {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code,
		ir.Instr{Op: ir.OpConstFloat, Dst: 0, A: no, B: no, C: no, F: a},
		ir.Instr{Op: ir.OpConstFloat, Dst: 1, A: no, B: no, C: no, F: b},
		irIns(ir.OpConstInt, 2, no, no, k),
		irIns(ir.OpCall, 3, no, no, int64(c.FuncID("f")), 0, 1, 2))
	for range post {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code, irIns(ir.OpPrint, no, 3, no, 0), irIns(ir.OpRet, no, no, no, 0))
	rF := ir.ElemFloat
	main := &ir.Func{Name: "main", NRegs: 4, RegKinds: []ir.ElemKind{rF, rF, rI, rF}, Code: code}
	funcs := slices.Clone(c.Funcs)
	funcs[c.MainID] = main
	return &ir.Program{Funcs: funcs, FuncByName: c.FuncByName, Externs: c.Externs, Classes: c.Classes,
		Params: c.Params, ParamNames: c.ParamNames, MainID: c.MainID}
}

// linearPlanOf returns f's plan in p's module, after checking that the
// plan is there exactly when want is and that main's call of f and f's
// own call are OpCallLinear exactly then.
func linearPlanOf(t *testing.T, label string, p *ir.Program, want bool) *vm.Linear {
	t.Helper()
	m := moduleOf(t, p)
	fc := m.Funcs[p.FuncID("f")]
	if (fc.Linear != nil) != want {
		t.Fatalf("%s: f has a linear plan: %v, want %v\n%s", label, fc.Linear != nil, want, fc.Disasm())
	}
	for _, caller := range []*vm.FuncCode{m.Funcs[p.MainID], fc} {
		for pc := range caller.Code {
			in := &caller.Code[pc]
			if (in.Op == vm.OpCall || in.Op == vm.OpCallLinear) && int(in.Imm) == fc.ID && (in.Op == vm.OpCallLinear) != want {
				t.Fatalf("%s: %s calls f with %v", label, caller.Name, in.Op)
			}
		}
	}
	return fc.Linear
}

// TestLinearRecursionMatchesInterpreter is the differential test of
// OpCallLinear. For each variant, a prelude of pre instructions moves the
// first dispatch's end across the whole recursion, so the budget cuts it
// at every instruction of every level (the call then runs in frames) and
// then admits it whole. A planned variant's program is sized to end
// exactly at two full budgets, and once one instruction later, so a
// dispatch that ran one instruction too many or too few would change the
// scheduler step count. Depths run from the base case alone to several
// budgets' worth of levels, whose frames take the rest in one dispatch
// once it fits, and to both sides of the call-depth limit, where the
// overflow fault's message must match too. Results, scheduler steps
// included, must be identical under the two engines. Under -short only
// the first variant runs.
func TestLinearRecursionMatchesInterpreter(t *testing.T) {
	variants := len(linearVariants)
	if testing.Short() {
		variants = 1
	}
	for v := range variants {
		label := linearVariants[v].label
		l := linearPlanOf(t, label, linearProgram(t, v, 0, 0, 1, 2, 3), linearVariants[v].plan)
		for _, k := range []int64{-7, 0, 1, 3} {
			span := 64 // the sweep's width, past the recursion's instructions
			if l != nil {
				n, _ := l.Levels(k, 10000)
				span = 1 + n*l.LevelLen + l.BaseLen
			}
			for pre := stepBudget - span - 12; pre <= stepBudget+2; pre++ {
				label := fmt.Sprintf("%s: k=%d, %d nops before", label, k, pre)
				if l == nil {
					runBoth(t, label, linearProgram(t, v, pre, 0, 0.75, -1.25, k))
					continue
				}
				for _, steps := range []int64{2, 3} {
					post := 2*stepBudget + int(steps) - 2 - (pre + span + 5)
					res, err := runBoth(t, label, linearProgram(t, v, pre, post, 0.75, -1.25, k))
					if err != nil {
						t.Fatal(err)
					}
					if res.Steps != steps {
						t.Fatalf("%s, %d after: %d scheduler steps, want %d", label, post, res.Steps, steps)
					}
				}
			}
		}
		for _, k := range []int64{400, 9997, 9998, 9999, 10000, math.MaxInt64} {
			runBoth(t, fmt.Sprintf("%s: k=%d", label, k), linearProgram(t, v, 100, 0, 0.75, -1.25, k))
		}
	}
}

// FuzzLinearRecursion holds OpCallLinear to the step interpreter on random
// calls of every variant, accepted shapes and near-misses: k of any size
// (the call-depth check then cuts the frames, with its fault), a prelude
// that moves the budget's end across every level, and any float
// arguments. The VM's Result, scheduler steps included, or its error must
// equal the interpreter's byte for byte.
func FuzzLinearRecursion(f *testing.F) {
	for v := range linearVariants {
		f.Add(uint8(v), int64(3), uint16(4000), 0.5, 2.0)
		f.Add(uint8(v), int64(9999), uint16(7), -1.5, 3.0)
	}
	f.Add(uint8(0), int64(10000), uint16(0), 1.0, 1.0)
	f.Add(uint8(1), int64(math.MinInt64), uint16(4090), math.Inf(1), math.NaN())
	f.Add(uint8(1), int64(math.MaxInt64), uint16(2), 0.0, -0.0)
	f.Fuzz(func(t *testing.T, v uint8, k int64, pre uint16, a, b float64) {
		vi := int(v) % len(linearVariants)
		runBoth(t, fmt.Sprintf("%s: k=%d pre=%d a=%v b=%v", linearVariants[vi].label, k, pre, a, b),
			linearProgram(t, vi, int(pre)%(2*stepBudget), 0, a, b, k))
	})
}
