package interp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
)

// Targeted engine differentials for the superinstruction groups and the
// elided frame zeroing, on hand-built IR where every slot's position in
// its dispatch is known.

// irProgram wraps hand-built functions (main first; register kinds given)
// into a program.
func irProgram(funcs ...*ir.Func) *ir.Program {
	p := &ir.Program{Funcs: funcs, FuncByName: map[string]int{}}
	for i, f := range funcs {
		f.NRegs = len(f.RegKinds)
		p.FuncByName[f.Name] = i
	}
	return p
}

func irIns(op ir.Op, dst, a, b ir.Reg, imm int64, args ...ir.Reg) ir.Instr {
	return ir.Instr{Op: op, Dst: dst, A: a, B: b, C: ir.NoReg, Imm: imm, Args: args}
}

// moduleOf returns the module Run executes p on.
func moduleOf(tb testing.TB, p *ir.Program) *vm.Module {
	tb.Helper()
	m, err := vmModuleFor(p)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// runBoth runs p under the interpreter and under the VM and requires
// identical results, or identical errors.
func runBoth(t *testing.T, label string, p *ir.Program) (*Result, error) {
	t.Helper()
	ref, refErr := Run(p, Options{Procs: 1, Engine: EngineInterp})
	got, gotErr := Run(p, Options{Procs: 1, Engine: EngineVM})
	if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: vm error %q, interpreter error %q", label, fmt.Sprint(gotErr), fmt.Sprint(refErr))
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: vm result differs from interpreter:\n vm     %+v\n interp %+v", label, got, ref)
	}
	return ref, refErr
}

func groupAt(t *testing.T, m *vm.Module, pc int, op vm.Op, n uint8) {
	t.Helper()
	if in := m.Funcs[0].Code[pc]; in.Op != op || in.Len != n {
		t.Fatalf("pc %d: %v len %d, want %v len %d", pc, in.Op, in.Len, op, n)
	}
}

const (
	rI = ir.ElemInt
	rB = ir.ElemBool
	no = ir.NoReg
)

// TestBudgetBoundaryInsideLen3Group places a compare-immediate-and-branch
// group so that its head is reached with executed == stepBudget-2 and
// stepBudget-1. The dispatch must end inside the group, on the plain
// slots, where the interpreter's per-instruction count ends it: the
// program is sized (one instruction past two full budgets) so that running
// the whole group past the budget would save a scheduler step.
func TestBudgetBoundaryInsideLen3Group(t *testing.T) {
	for _, before := range []int{stepBudget - 2, stepBudget - 1} {
		code := []ir.Instr{irIns(ir.OpConstInt, 0, no, no, 5)}
		for len(code) < before {
			code = append(code, irIns(ir.OpNop, no, no, no, 0))
		}
		head := len(code)
		code = append(code,
			irIns(ir.OpConstInt, 1, no, no, 9),
			irIns(ir.OpLtI, 2, 0, 1, 0),
			irIns(ir.OpBrFalse, no, 2, no, int64(head+3)),
		)
		for len(code) < 2*stepBudget {
			code = append(code, irIns(ir.OpNop, no, no, no, 0))
		}
		code = append(code, irIns(ir.OpRet, no, no, no, 0))
		p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rB}, Code: code})
		groupAt(t, moduleOf(t, p), head, vm.OpLtIKBr, 3)
		if _, err := runBoth(t, fmt.Sprintf("head at executed=%d", before), p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJumpIntoGroupRunsPlainSlots enters fused groups at their second and
// third slot: the constant write of the head must not happen, and the
// compare and the branch must run as the plain instructions.
func TestJumpIntoGroupRunsPlainSlots(t *testing.T) {
	code := []ir.Instr{
		irIns(ir.OpConstInt, 0, no, no, 5),   // 0
		irIns(ir.OpConstInt, 1, no, no, 100), // 1
		irIns(ir.OpConstBool, 2, no, no, 0),  // 2
		irIns(ir.OpJump, no, no, no, 5),      // 3: into the second slot
		irIns(ir.OpConstInt, 1, no, no, 3),   // 4: group head (skipped)
		irIns(ir.OpLtI, 2, 0, 1, 0),          // 5: 5 < 100, not 5 < 3
		irIns(ir.OpBrFalse, no, 2, no, 14),   // 6
		irIns(ir.OpPrint, no, 1, no, 0),      // 7: prints 100
		irIns(ir.OpConstBool, 2, no, no, 0),  // 8
		irIns(ir.OpJump, no, no, no, 12),     // 9: into the third slot
		irIns(ir.OpConstInt, 1, no, no, 7),   // 10: group head (skipped)
		irIns(ir.OpGtI, 2, 0, 1, 0),          // 11 (skipped)
		irIns(ir.OpBrFalse, no, 2, no, 14),   // 12: r2 is false: taken
		irIns(ir.OpPrint, no, 0, no, 0),      // 13 (not reached)
		irIns(ir.OpPrint, no, 1, no, 0),      // 14: still 100
		irIns(ir.OpConstInt, 1, no, no, 4),   // 15: arithmetic group head (skipped below)
		irIns(ir.OpMulI, 0, 0, 1, 0),         // 16
		irIns(ir.OpPrint, no, 0, no, 0),      // 17: 5*4 the first time, 20*100 the second
		irIns(ir.OpBrFalse, no, 2, no, 20),   // 18: r2 false the first time
		irIns(ir.OpRet, no, no, no, 0),       // 19
		irIns(ir.OpConstBool, 2, no, no, 1),  // 20
		irIns(ir.OpConstInt, 1, no, no, 100), // 21
		irIns(ir.OpJump, no, no, no, 16),     // 22: into the second slot of the Len 2 group
	}
	p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rB}, Code: code})
	m := moduleOf(t, p)
	groupAt(t, m, 4, vm.OpLtIKBr, 3)
	groupAt(t, m, 10, vm.OpGtIKBr, 3)
	groupAt(t, m, 15, vm.OpMulIK, 2)
	res, err := runBoth(t, "jump into groups", p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"100", "100", "20", "2000"}; !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output %v, want %v", res.Output, want)
	}
}

// TestLiteralZeroDivisorNotFused: x / 0 and x % 0 with a constant zero
// stay plain instructions and fault with the interpreter's message.
func TestLiteralZeroDivisorNotFused(t *testing.T) {
	for _, op := range []ir.Op{ir.OpDivI, ir.OpModI} {
		p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rI}, Code: []ir.Instr{
			irIns(ir.OpConstInt, 0, no, no, 7),
			irIns(ir.OpConstInt, 1, no, no, 0),
			irIns(op, 2, 0, 1, 0),
			irIns(ir.OpPrint, no, 2, no, 0),
			irIns(ir.OpRet, no, no, no, 0),
		}})
		if in := moduleOf(t, p).Funcs[0].Code[1]; in.Len != 1 {
			t.Errorf("%v by constant zero fused into %v", op, in.Op)
		}
		if _, err := runBoth(t, op.String()+" by zero", p); err == nil {
			t.Errorf("%v by zero did not fault", op)
		}
	}
}

// TestConstantDivisorGroups runs div/mod groups over dividends of both
// signs and the extremes, with divisors that are powers of two, 1,
// negative, and the overflowing -1.
func TestConstantDivisorGroups(t *testing.T) {
	dividends := []int64{-7, 7, -8, 0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{2, 1, -2, 4, 1 << 62, 3, -1, math.MinInt64} {
		var code []ir.Instr
		for _, a := range dividends {
			code = append(code,
				irIns(ir.OpConstInt, 0, no, no, a),
				irIns(ir.OpConstInt, 1, no, no, k),
				irIns(ir.OpDivI, 2, 0, 1, 0),
				irIns(ir.OpPrint, no, 2, no, 0),
				irIns(ir.OpConstInt, 1, no, no, k),
				irIns(ir.OpModI, 2, 0, 1, 0),
				irIns(ir.OpPrint, no, 2, no, 0),
			)
		}
		code = append(code, irIns(ir.OpRet, no, no, no, 0))
		p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rI}, Code: code})
		m := moduleOf(t, p)
		groupAt(t, m, 1, vm.OpDivIK, 2)
		groupAt(t, m, 4, vm.OpModIK, 2)
		res, err := runBoth(t, fmt.Sprintf("divisor %d", k), p)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range dividends {
			want := []string{fmt.Sprint(a / k), fmt.Sprint(a % k)}
			if got := res.Output[2*i : 2*i+2]; !reflect.DeepEqual(got, want) {
				t.Errorf("%d by %d: got %v, want %v", a, k, got, want)
			}
		}
	}
}

// TestUnwrittenLocalReadsZero: a function that reads a local it never
// wrote must see zero in every activation, as the interpreter's fresh
// frame gives it — after a sibling call left other values in the same
// arena words, inlined and out of line alike.
func TestUnwrittenLocalReadsZero(t *testing.T) {
	rF, rR := ir.ElemFloat, ir.ElemRef
	dirty := &ir.Func{Name: "dirty", NParams: 1, RegKinds: []ir.ElemKind{rI, rI, rF, rR, rI}, Code: []ir.Instr{
		irIns(ir.OpAddI, 1, 0, 0, 0),
		irIns(ir.OpIntToFloat, 2, 1, no, 0),
		irIns(ir.OpNewArr, 3, 0, no, int64(ir.ElemInt)),
		irIns(ir.OpMulI, 4, 1, 1, 0),
		irIns(ir.OpRet, no, 4, no, 0),
	}}
	leaky := &ir.Func{Name: "leaky", NParams: 1, RegKinds: []ir.ElemKind{rI, rI, rF, rR, rI, rB}, Code: []ir.Instr{
		irIns(ir.OpAddF, 2, 2, 2, 0), // unwritten float
		irIns(ir.OpPrint, no, 2, no, 0),
		irIns(ir.OpPrint, no, 3, no, 0),     // unwritten ref
		irIns(ir.OpAddI, 4, 0, 1, 0),        // unwritten int
		irIns(ir.OpConstInt, 1, no, no, 77), // written after the read
		irIns(ir.OpRet, no, 4, no, 0),
	}}
	main := &ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rB, rI, rI}, Code: []ir.Instr{
		irIns(ir.OpConstInt, 0, no, no, 3), // 0: i
		irIns(ir.OpConstInt, 1, no, no, 6), // 1: loop head
		irIns(ir.OpLtI, 2, 0, 1, 0),
		irIns(ir.OpBrFalse, no, 2, no, 11),
		irIns(ir.OpCall, 3, no, no, 1, 0), // dirty(i)
		irIns(ir.OpCall, 4, no, no, 2, 0), // leaky(i): i + 0
		irIns(ir.OpPrint, no, 3, no, 0),
		irIns(ir.OpPrint, no, 4, no, 0),
		irIns(ir.OpConstInt, 1, no, no, 1),
		irIns(ir.OpAddI, 0, 0, 1, 0),
		irIns(ir.OpJump, no, no, no, 1),
		irIns(ir.OpRet, no, no, no, 0),
	}}
	p := irProgram(main, dirty, leaky)
	m := moduleOf(t, p)
	if fc := m.Funcs[2]; !fc.ZeroInts || !fc.ZeroFloats || !fc.ZeroRefs {
		t.Fatalf("leaky: zeroing %v/%v/%v, want all", fc.ZeroInts, fc.ZeroFloats, fc.ZeroRefs)
	}
	if fc := m.Funcs[1]; fc.ZeroInts || fc.ZeroFloats || fc.ZeroRefs {
		t.Fatalf("dirty: zeroed, but it writes every local first")
	}
	res, err := runBoth(t, "unwritten local (inlined)", p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "nil", "36", "3", "0", "nil", "64", "4", "0", "nil", "100", "5"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output %v, want %v", res.Output, want)
	}
	if op := m.Funcs[0].Plain[4].Op; op != vm.OpCallEnter {
		t.Fatalf("dirty(i) compiled to %v, want an inline splice", op)
	}
	// The same program with both callees padded past the inlining bound:
	// real frames, push-time zeroing.
	pad := func(code []ir.Instr) []ir.Instr {
		out := make([]ir.Instr, 64, 64+len(code))
		for i := range out {
			out[i] = irIns(ir.OpNop, no, no, no, 0)
		}
		return append(out, code...)
	}
	q := irProgram(
		&ir.Func{Name: "main", RegKinds: main.RegKinds, Code: main.Code},
		&ir.Func{Name: "dirty", NParams: 1, RegKinds: dirty.RegKinds, Code: pad(dirty.Code)},
		&ir.Func{Name: "leaky", NParams: 1, RegKinds: leaky.RegKinds, Code: pad(leaky.Code)},
	)
	qmain := moduleOf(t, q).Funcs[0]
	for _, pc := range []int{4, 5} {
		if op := qmain.Plain[pc].Op; op != vm.OpCall {
			t.Fatalf("padded callee at pc %d compiled to %v, want an out-of-line call", pc, op)
		}
	}
	res, err = runBoth(t, "unwritten local (out of line)", q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("out of line: output %v, want %v", res.Output, want)
	}
}

// TestModuleIndependentOfRunOrder: a program's module is a function of the
// program alone. Three fresh compiles of each application — never run, run
// under original first, run under aggressive first — disassemble
// identically, and the never-run one already carries fused groups.
func TestModuleIndependentOfRunOrder(t *testing.T) {
	for _, name := range apps.Names {
		var never []string
		for _, first := range []string{"", "original", "aggressive"} {
			c, err := apps.Compile(name)
			if err != nil {
				t.Fatal(err)
			}
			if first != "" {
				if _, err := Run(c.Parallel, Options{Procs: 8, Policy: first, Params: apps.TestParams(name)}); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			fused := false
			for _, fc := range moduleOf(t, c.Parallel).Funcs {
				got = append(got, fc.Disasm())
				for pc := range fc.Code {
					fused = fused || fc.Code[pc].Len > 1
				}
			}
			if first == "" {
				never = got
				if !fused {
					t.Errorf("%s: the module of a never-run program has no fused group", name)
				}
				continue
			}
			for id := range got {
				if got[id] != never[id] {
					t.Errorf("%s: after a first run under %s, function %d differs from the never-run module:\n%s\nnever run:\n%s",
						name, first, id, got[id], never[id])
				}
			}
		}
	}
}
