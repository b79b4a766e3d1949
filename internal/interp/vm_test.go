package interp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
	return runBothWith(t, label, p, Options{Procs: 1})
}

// runBothWith is runBoth under opts, whose Engine it sets.
func runBothWith(t *testing.T, label string, p *ir.Program, opts Options) (*Result, error) {
	t.Helper()
	opts.Engine = EngineInterp
	ref, refErr := Run(p, opts)
	opts.Engine = EngineVM
	got, gotErr := Run(p, opts)
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

// groupCase is one superinstruction group as hand-built IR, placed in a
// function f(n) that main calls with n = arg (1 when zero), so that the
// tail-call group has a recursion to make. f begins with the prelude
// `if n == 0 { return n }` (four slots, the base case), zeroes its other
// int, bool and float registers (a jump into a group skips writes, and an
// unwritten register prints differently under the two engines), and then
// runs init, the group's slots and one print of each register in show
// before it returns n. In group, a brfalse target (Imm) counts from the slot after
// the group's last one. rest is the number of instructions executed from
// the group's head to f's return; zero means every slot of group, the
// prints and the return run once.
type groupCase struct {
	name  string
	op    vm.Op
	kinds []ir.ElemKind // f's registers; r0 is n, and two prelude registers follow
	arg   int64
	init  []ir.Instr
	group []ir.Instr
	show  []ir.Reg
	rest  int
}

const (
	rF = ir.ElemFloat
	rR = ir.ElemRef
)

// groupCases are the census groups, their aliasing shapes and
// le.ik+br, a narrower group, in both branch directions. a = 7 and b = 5
// unless init says otherwise; the negative numerators check Go's truncated
// division against the oracle.
var groupCases = []groupCase{
	{name: "le.ik+br", op: vm.OpLeIKBr, kinds: []ir.ElemKind{rI, rI, rB},
		group: []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 9),
			irIns(ir.OpLeI, 2, 0, 1, 0),
			irIns(ir.OpBrFalse, no, 2, no, 0),
		}, show: []ir.Reg{1, 2}},
	{name: "le.ik+br/taken", op: vm.OpLeIKBr, kinds: []ir.ElemKind{rI, rI, rI, rB},
		init: consts(1, 7),
		group: []ir.Instr{
			irIns(ir.OpConstInt, 2, no, no, 1),
			irIns(ir.OpLeI, 3, 1, 2, 0),
			irIns(ir.OpBrFalse, no, 3, no, 0),
			irIns(ir.OpPrint, no, 2, no, 0), // skipped: 7 <= 1 is false
		}, show: []ir.Reg{2, 3}, rest: 3 + 2 + 1},
	{name: "le.ik+br/const slot is the compared register", op: vm.OpLeIKBr, kinds: []ir.ElemKind{rI, rI, rI, rB},
		init: consts(1, 7),
		group: []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 1),
			irIns(ir.OpLeI, 3, 1, 1, 0), // 1 <= 1, not 7 <= 1
			irIns(ir.OpBrFalse, no, 3, no, 0),
		}, show: []ir.Reg{1, 3}},
	{name: "add.i+div.ik+mov.i/negative", op: vm.OpAddDivIKMov, kinds: []ir.ElemKind{rI, rI, rI, rI, rI, rI, rI},
		init: consts(1, -7, 2, -2),
		group: []ir.Instr{
			irIns(ir.OpAddI, 3, 1, 2, 0),
			irIns(ir.OpConstInt, 4, no, no, 2),
			irIns(ir.OpDivI, 5, 3, 4, 0),
			irIns(ir.OpMov, 6, 5, no, 0),
		}, show: []ir.Reg{3, 4, 5, 6}},
	{name: "add.i+div.ik+mov.i/const slot is the sum", op: vm.OpAddDivIKMov, kinds: []ir.ElemKind{rI, rI, rI, rI, rI, rI, rI},
		init: consts(1, 7, 2, 5),
		group: []ir.Instr{
			irIns(ir.OpAddI, 3, 1, 2, 0),
			irIns(ir.OpConstInt, 3, no, no, -2),
			irIns(ir.OpDivI, 5, 3, 3, 0), // -2 / -2
			irIns(ir.OpMov, 3, 5, no, 0),
		}, show: []ir.Reg{3, 5}},
	{name: "mod.ik+eq.ik+br/negative", op: vm.OpModIKEqIKBr, kinds: []ir.ElemKind{rI, rI, rI, rI, rI, rI, rB},
		init: consts(1, -7),
		group: []ir.Instr{
			irIns(ir.OpConstInt, 2, no, no, 2),
			irIns(ir.OpModI, 3, 1, 2, 0), // -1
			irIns(ir.OpConstInt, 4, no, no, 0),
			irIns(ir.OpEq, 6, 3, 4, 0),
			irIns(ir.OpBrFalse, no, 6, no, 0),
			irIns(ir.OpPrint, no, 2, no, 0), // skipped
		}, show: []ir.Reg{2, 3, 4, 6}, rest: 5 + 4 + 1},
	{name: "mod.ik+eq.ik+br/negative constants", op: vm.OpModIKEqIKBr, kinds: []ir.ElemKind{rI, rI, rI, rI, rI, rI, rB},
		init: consts(1, -8),
		group: []ir.Instr{
			irIns(ir.OpConstInt, 2, no, no, -3),
			irIns(ir.OpModI, 3, 1, 2, 0), // -2
			irIns(ir.OpConstInt, 4, no, no, -2),
			irIns(ir.OpEq, 6, 3, 4, 0),
			irIns(ir.OpBrFalse, no, 6, no, 0),
			irIns(ir.OpPrint, no, 2, no, 0), // runs: -2 == -2
		}, show: []ir.Reg{2, 3, 4, 6}},
	{name: "mod.ik+eq.ik+br/const slots alias", op: vm.OpModIKEqIKBr, kinds: []ir.ElemKind{rI, rI, rI, rI, rI, rI, rB},
		init: consts(1, 9),
		group: []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 4),
			irIns(ir.OpModI, 3, 1, 1, 0), // 4 % 4
			irIns(ir.OpConstInt, 3, no, no, 5),
			irIns(ir.OpEq, 6, 3, 3, 0), // 5 == 5
			irIns(ir.OpBrFalse, no, 6, no, 0),
		}, show: []ir.Reg{1, 3, 6}},
	{name: "sub.ik+tailcall", op: vm.OpIKTailCall, kinds: []ir.ElemKind{rI, rI, rI, rI},
		group: []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 1),
			irIns(ir.OpSubI, 2, 0, 1, 0),
			irIns(ir.OpCall, 3, no, no, 1, 2),
			irIns(ir.OpRet, no, 3, no, 0),
		}, rest: 8}, // the group, f(0)'s prelude and return, the replayed return
	{name: "div.ik+tailcall/negative", op: vm.OpIKTailCall, kinds: []ir.ElemKind{rI, rI, rI, rI}, arg: -1,
		group: []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 2),
			irIns(ir.OpDivI, 2, 0, 1, 0), // -1 / 2 is 0
			irIns(ir.OpCall, 3, no, no, 1, 2),
			irIns(ir.OpRet, no, 3, no, 0),
		}, rest: 8},
	{name: "sub.ik+tailcall/const slot is the difference", op: vm.OpIKTailCall, kinds: []ir.ElemKind{rI, rI, rI, rI},
		group: []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 1),
			irIns(ir.OpSubI, 1, 0, 1, 0),
			irIns(ir.OpCall, 3, no, no, 1, 1),
			irIns(ir.OpRet, no, 3, no, 0),
		}, rest: 8},
	{name: "ldfld.f+add.f+stfld.f", op: vm.OpAddFieldF, kinds: []ir.ElemKind{rI, rR, rF, rF, rF},
		init: fieldInit,
		group: []ir.Instr{
			irIns(ir.OpLoadField, 2, 1, no, 0),
			irIns(ir.OpAddF, 4, 3, 2, 0), // B is the loaded register
			irIns(ir.OpStoreField, no, 1, 4, 0),
		}, show: []ir.Reg{2, 4}},
	{name: "ldfld.f+add.f+stfld.f/sum into the loaded register", op: vm.OpAddFieldF, kinds: []ir.ElemKind{rI, rR, rF, rF, rF},
		init: fieldInit,
		group: []ir.Instr{
			irIns(ir.OpLoadField, 2, 1, no, 0),
			irIns(ir.OpAddF, 2, 2, 2, 0),
			irIns(ir.OpStoreField, no, 1, 2, 0),
		}, show: []ir.Reg{2}},
	{name: "ldfld.f+add.fk+stfld.f", op: vm.OpAddFieldFK, kinds: []ir.ElemKind{rI, rR, rF, rF, rF},
		init: fieldInit,
		group: []ir.Instr{
			irIns(ir.OpLoadField, 2, 1, no, 0),
			constF(4, 0.25),
			irIns(ir.OpAddF, 3, 2, 4, 0),
			irIns(ir.OpStoreField, no, 1, 3, 0),
			irIns(ir.OpLoadField, 2, 1, no, 0), // the stored sum
		}, show: []ir.Reg{2, 3, 4}},
	{name: "ldfld.f+add.fk+stfld.f/sum into the constant's register", op: vm.OpAddFieldFK, kinds: []ir.ElemKind{rI, rR, rF, rF, rF},
		init: fieldInit,
		group: []ir.Instr{
			irIns(ir.OpLoadField, 2, 1, no, 0),
			constF(4, -3),
			irIns(ir.OpAddF, 4, 3, 4, 0), // r3, not the loaded register
			irIns(ir.OpStoreField, no, 1, 4, 0),
		}, show: []ir.Reg{2, 4}},
	{name: "mul.fk", op: vm.OpMulFK, kinds: []ir.ElemKind{rI, rF, rF, rF},
		init: []ir.Instr{constF(1, 1.5)},
		group: []ir.Instr{
			constF(2, 0.1),
			irIns(ir.OpMulF, 3, 1, 2, 0),
		}, show: []ir.Reg{2, 3}},
	{name: "mul.fk/constant on both sides", op: vm.OpMulFK, kinds: []ir.ElemKind{rI, rF, rF, rF},
		init: []ir.Instr{constF(1, 1.5)},
		group: []ir.Instr{
			constF(2, 3),
			irIns(ir.OpMulF, 2, 2, 2, 0), // 3 * 3, into the constant's register
		}, show: []ir.Reg{1, 2}},
}

// constF writes the float constant f to register r.
func constF(r ir.Reg, f float64) ir.Instr {
	return ir.Instr{Op: ir.OpConstFloat, Dst: r, A: no, B: no, C: no, F: f}
}

// fieldInit makes r1 a fresh object of class 0 and writes 1.5 to r3 and
// to its float field.
var fieldInit = []ir.Instr{
	irIns(ir.OpNew, 1, no, no, 0),
	{Op: ir.OpConstFloat, Dst: 3, A: no, B: no, C: no, F: 1.5},
	irIns(ir.OpStoreField, no, 1, 3, 0),
}

// consts writes integer constants: consts(r, v, ...) sets each register r
// to the value after it.
func consts(rv ...int64) []ir.Instr {
	var out []ir.Instr
	for i := 0; i < len(rv); i += 2 {
		out = append(out, irIns(ir.OpConstInt, ir.Reg(rv[i]), no, no, rv[i+1]))
	}
	return out
}

// program builds the case with pad (at least one, so that init cannot
// fuse with the head) no-ops between init and the group and tail no-ops
// in main after the call. With into > 0 f jumps from before the no-ops to
// the group's slot into instead of falling into its head. It returns the
// program, the group's head in f and, without the jump, the executed
// count at which the head is reached.
func (c groupCase) program(pad, tail, into int) (p *ir.Program, head, at int) {
	n := ir.Reg(len(c.kinds))
	kinds := append(slices.Clone(c.kinds), rI, rB)
	code := []ir.Instr{
		irIns(ir.OpConstInt, n, no, no, 0),
		irIns(ir.OpEq, n+1, 0, n, 0),
		irIns(ir.OpBrFalse, no, n+1, no, 4),
		irIns(ir.OpRet, no, 0, no, 0),
	}
	for r, k := range c.kinds[1:] {
		switch k {
		case rI:
			code = append(code, irIns(ir.OpConstInt, ir.Reg(r+1), no, no, 0))
		case rB:
			code = append(code, irIns(ir.OpConstBool, ir.Reg(r+1), no, no, 0))
		case rF:
			code = append(code, ir.Instr{Op: ir.OpConstFloat, Dst: ir.Reg(r + 1), A: no, B: no, C: no})
		}
	}
	code = append(code, c.init...)
	at = 2 + len(code) - 1 // main's const and call; f's taken branch skips its return
	jump := len(code)
	if into > 0 {
		code = append(code, ir.Instr{})
	}
	for range pad {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	at += pad
	head = len(code)
	if into > 0 {
		code[jump] = irIns(ir.OpJump, no, no, no, int64(head+into))
	}
	for _, in := range c.group {
		if in.Op == ir.OpBrFalse {
			in.Imm += int64(head + len(c.group))
		}
		code = append(code, in)
	}
	for _, r := range c.show {
		code = append(code, irIns(ir.OpPrint, no, r, no, 0))
	}
	code = append(code, irIns(ir.OpRet, no, 0, no, 0))

	arg := c.arg
	if arg == 0 {
		arg = 1
	}
	mainCode := []ir.Instr{
		irIns(ir.OpConstInt, 0, no, no, arg),
		irIns(ir.OpCall, 1, no, no, 1, 0),
	}
	for range tail {
		mainCode = append(mainCode, irIns(ir.OpNop, no, no, no, 0))
	}
	mainCode = append(mainCode, irIns(ir.OpPrint, no, 1, no, 0), irIns(ir.OpRet, no, no, no, 0))
	p = irProgram(
		&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI}, Code: mainCode},
		&ir.Func{Name: "f", NParams: 1, RegKinds: kinds, Code: code},
	)
	p.Classes = []*ir.Class{{Name: "Cell", Fields: []string{"v"}, FieldKinds: []ir.ElemKind{rF}}}
	return p, head, at
}

// groupLen requires f's slot head to be the case's group and returns the
// group's length.
func (c groupCase) groupLen(t *testing.T, p *ir.Program, head int) int {
	t.Helper()
	in := moduleOf(t, p).Funcs[1].Code[head]
	if in.Op != c.op {
		t.Fatalf("%s: head slot %d is %v, want %v", c.name, head, in.Op, c.op)
	}
	return int(in.Len)
}

// TestBudgetBoundaryInsideGroups reaches each group's head with every
// executed count from stepBudget-Len (the group just fits) to
// stepBudget-1. Where it does not fit, the dispatch must end inside the
// group, on the plain slots, where the interpreter's per-instruction count
// ends it: the program is sized (one instruction past two full budgets) so
// that running the whole group past the budget would save a scheduler step.
func TestBudgetBoundaryInsideGroups(t *testing.T) {
	for _, c := range groupCases {
		p, head, before := c.program(1, 0, 0)
		l := c.groupLen(t, p, head)
		rest := c.rest
		if rest == 0 {
			rest = len(c.group) + len(c.show) + 1
		}
		for at := stepBudget - l; at < stepBudget; at++ {
			// One instruction fewer is two dispatches: the program's
			// length is as sized.
			tail := 2*stepBudget + 1 - (at + rest + 2) // main prints and returns after the call
			for _, steps := range []int64{3, 2} {
				p, head, _ := c.program(1+at-before, tail+int(steps)-3, 0)
				c.groupLen(t, p, head)
				res, err := runBoth(t, fmt.Sprintf("%s: head at executed=%d", c.name, at), p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Steps != steps {
					t.Fatalf("%s: head at executed=%d: %d scheduler steps, want %d", c.name, at, res.Steps, steps)
				}
			}
		}
	}
}

// TestJumpIntoGroupMiddles enters every group at each slot after its
// head: the slots before the target must not run, and the rest must run
// as the plain instructions.
func TestJumpIntoGroupMiddles(t *testing.T) {
	for _, c := range groupCases {
		p, head, _ := c.program(1, 0, 0)
		l := c.groupLen(t, p, head)
		for into := 1; into < l; into++ {
			p, head, _ := c.program(1, 0, into)
			c.groupLen(t, p, head)
			// A skipped constant can leave a zero divisor: the plain slot
			// must then fault as the interpreter does.
			runBoth(t, fmt.Sprintf("%s: jump to slot %d", c.name, into), p)
		}
	}
}

// TestFaultsNameTheSourceInstruction: a fault reports the function and
// pc the faulting instruction came from, read from FuncCode.Src, also when
// inline expansion moved the instruction into its caller and when it is
// the head of a fused group.
func TestFaultsNameTheSourceInstruction(t *testing.T) {
	leaf := func(code ...ir.Instr) *ir.Func {
		return &ir.Func{Name: "leaf", NParams: 1, RegKinds: []ir.ElemKind{rR, rF, rF, rI, rI}, Code: code}
	}
	cases := []struct {
		name, want string
		main       []ir.Instr
		leaf       *ir.Func
	}{
		{"field group in an inlined leaf", "interp: leaf: pc 2: nil dereference",
			[]ir.Instr{irIns(ir.OpConstNil, 0, no, no, 0), irIns(ir.OpCall, no, no, no, 1, 0)},
			leaf(
				irIns(ir.OpNop, no, no, no, 0),
				irIns(ir.OpLoadField, 1, 0, no, 0),
				irIns(ir.OpAddF, 2, 1, 1, 0),
				irIns(ir.OpStoreField, no, 0, 2, 0),
				irIns(ir.OpRet, no, no, no, 0),
			)},
		{"field constant group in an inlined leaf", "interp: leaf: pc 2: nil dereference",
			[]ir.Instr{irIns(ir.OpConstNil, 0, no, no, 0), irIns(ir.OpCall, no, no, no, 1, 0)},
			leaf(
				irIns(ir.OpNop, no, no, no, 0),
				irIns(ir.OpLoadField, 1, 0, no, 0),
				constF(2, 1),
				irIns(ir.OpAddF, 2, 1, 2, 0),
				irIns(ir.OpStoreField, no, 0, 2, 0),
				irIns(ir.OpRet, no, no, no, 0),
			)},
		{"division in an inlined leaf", "interp: leaf: integer division by zero",
			[]ir.Instr{irIns(ir.OpConstNil, 0, no, no, 0), irIns(ir.OpCall, no, no, no, 1, 0)},
			leaf(
				irIns(ir.OpConstInt, 3, no, no, 4),
				irIns(ir.OpDivI, 4, 3, 4, 0),
				irIns(ir.OpRet, no, no, no, 0),
			)},
		{"index in an inlined leaf", "interp: leaf: index 0 out of range [0,0)",
			[]ir.Instr{
				irIns(ir.OpConstInt, 1, no, no, 0),
				irIns(ir.OpNewArr, 0, 1, no, int64(ir.ElemInt)),
				irIns(ir.OpCall, no, no, no, 1, 0),
			},
			leaf(
				irIns(ir.OpConstInt, 3, no, no, 0),
				irIns(ir.OpLoadIndex, 4, 0, 3, 0),
				irIns(ir.OpRet, no, no, no, 0),
			)},
		{"acquire", "interp: main: pc 1: nil dereference",
			[]ir.Instr{irIns(ir.OpConstNil, 0, no, no, 0), irIns(ir.OpAcquire, no, 0, no, 0)},
			leaf(irIns(ir.OpRet, no, no, no, 0))},
		{"conditional sync", "interp: main: pc 1: conditional sync without flag context",
			[]ir.Instr{irIns(ir.OpNew, 0, no, no, 0), irIns(ir.OpAcquireIf, no, 0, no, 0)},
			leaf(irIns(ir.OpRet, no, no, no, 0))},
	}
	for i, c := range cases {
		main := &ir.Func{Name: "main", RegKinds: []ir.ElemKind{rR, rI},
			Code: append(c.main, irIns(ir.OpRet, no, no, no, 0))}
		p := irProgram(main, c.leaf)
		p.Classes = []*ir.Class{{Name: "Cell", Fields: []string{"v"}, FieldKinds: []ir.ElemKind{rF}}}
		if c.main[len(c.main)-1].Op == ir.OpAcquireIf {
			// A conditional site makes the run an oracle run under either
			// engine; the other rows keep the VM side.
			p.NumFlagSites = 1
		}
		if i < 2 { // the fault comes from the head of a fused group
			want := [...]vm.Op{vm.OpAddFieldF, vm.OpAddFieldFK}[i]
			if op := moduleOf(t, p).Funcs[0].Code[3].Op; op != want {
				t.Errorf("%s: the leaf's field update compiled to %v in main, want %v", c.name, op, want)
			}
		}
		_, err := runBoth(t, c.name, p)
		if fmt.Sprint(err) != c.want {
			t.Errorf("%s: error %q, want %q", c.name, fmt.Sprint(err), c.want)
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
		irIns(ir.OpLeI, 2, 0, 1, 0),          // 5: 5 <= 100, not 5 <= 3
		irIns(ir.OpBrFalse, no, 2, no, 14),   // 6
		irIns(ir.OpPrint, no, 1, no, 0),      // 7: prints 100
		irIns(ir.OpConstBool, 2, no, no, 0),  // 8
		irIns(ir.OpJump, no, no, no, 12),     // 9: into the third slot
		irIns(ir.OpConstInt, 1, no, no, 7),   // 10: group head (skipped)
		irIns(ir.OpLeI, 2, 0, 1, 0),          // 11 (skipped)
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
	groupAt(t, m, 4, vm.OpLeIKBr, 3)
	groupAt(t, m, 10, vm.OpLeIKBr, 3)
	groupAt(t, m, 15, vm.OpMulIK, 2)
	res, err := runBoth(t, "jump into groups", p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"100", "100", "20", "2000"}; !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output %v, want %v", res.Output, want)
	}
}

// TestJumpIntoFloatGroupsRunsPlainSlots enters the float constant groups
// after their constant: the constant write must not happen, and the
// arithmetic and the field store must run as the plain instructions on the
// register's old value.
func TestJumpIntoFloatGroupsRunsPlainSlots(t *testing.T) {
	code := []ir.Instr{
		constF(0, 2),                        // 0
		constF(1, 100),                      // 1
		irIns(ir.OpJump, no, no, no, 4),     // 2: into the second slot
		constF(1, 0.5),                      // 3: group head (skipped)
		irIns(ir.OpMulF, 2, 0, 1, 0),        // 4: 2 * 100
		irIns(ir.OpPrint, no, 2, no, 0),     // 5
		irIns(ir.OpPrint, no, 1, no, 0),     // 6: still 100
		irIns(ir.OpNew, 3, no, no, 0),       // 7
		irIns(ir.OpStoreField, no, 3, 0, 0), // 8: the field holds 2
		irIns(ir.OpJump, no, no, no, 12),    // 9: into the third slot
		irIns(ir.OpLoadField, 4, 3, no, 0),  // 10: group head (skipped)
		constF(1, 0.25),                     // 11 (skipped)
		irIns(ir.OpAddF, 5, 0, 1, 0),        // 12: 2 + 100
		irIns(ir.OpStoreField, no, 3, 5, 0), // 13
		irIns(ir.OpLoadField, 4, 3, no, 0),  // 14
		irIns(ir.OpPrint, no, 4, no, 0),     // 15: 102
		irIns(ir.OpPrint, no, 1, no, 0),     // 16: still 100
		irIns(ir.OpRet, no, no, no, 0),      // 17
	}
	p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rF, rF, rF, rR, rF, rF}, Code: code})
	p.Classes = []*ir.Class{{Name: "Cell", Fields: []string{"v"}, FieldKinds: []ir.ElemKind{rF}}}
	m := moduleOf(t, p)
	groupAt(t, m, 3, vm.OpMulFK, 2)
	groupAt(t, m, 10, vm.OpAddFieldFK, 4)
	res, err := runBoth(t, "jump into float groups", p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"200", "100", "102", "100"}; !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output %v, want %v", res.Output, want)
	}
}

// TestFloatGroupsWriteTheConstant reads the constant's register after
// each float constant group: the groups fold the constant into the
// arithmetic, but the register write it made in the unfused stream stays.
func TestFloatGroupsWriteTheConstant(t *testing.T) {
	code := []ir.Instr{
		constF(0, 1.5),                      // 0
		irIns(ir.OpNop, no, no, no, 0),      // 1
		constF(1, 0.5),                      // 2: mul.fk
		irIns(ir.OpMulF, 2, 0, 1, 0),        // 3
		irIns(ir.OpPrint, no, 1, no, 0),     // 4: the constant
		irIns(ir.OpPrint, no, 2, no, 0),     // 5: 0.75
		irIns(ir.OpNew, 3, no, no, 0),       // 6
		irIns(ir.OpStoreField, no, 3, 0, 0), // 7: the field holds 1.5
		irIns(ir.OpLoadField, 4, 3, no, 0),  // 8: ldfld.f+add.fk+stfld.f
		constF(5, 0.25),                     // 9
		irIns(ir.OpAddF, 2, 4, 5, 0),        // 10
		irIns(ir.OpStoreField, no, 3, 2, 0), // 11
		irIns(ir.OpPrint, no, 5, no, 0),     // 12: the constant
		irIns(ir.OpPrint, no, 4, no, 0),     // 13: the loaded 1.5
		irIns(ir.OpLoadField, 4, 3, no, 0),  // 14
		irIns(ir.OpPrint, no, 4, no, 0),     // 15: the stored 1.75
		irIns(ir.OpRet, no, no, no, 0),      // 16
	}
	p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rF, rF, rF, rR, rF, rF}, Code: code})
	p.Classes = []*ir.Class{{Name: "Cell", Fields: []string{"v"}, FieldKinds: []ir.ElemKind{rF}}}
	m := moduleOf(t, p)
	groupAt(t, m, 2, vm.OpMulFK, 2)
	groupAt(t, m, 8, vm.OpAddFieldFK, 4)
	res, err := runBoth(t, "float constant groups", p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"0.5", "0.75", "0.25", "1.5", "1.75"}; !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output %v, want %v", res.Output, want)
	}
}

// TestLiteralZeroDivisorNotFused: x / 0 and x % 0 with a constant zero
// stay plain instructions in the groups that fold a constant divisor, and
// fault with the interpreter's message.
func TestLiteralZeroDivisorNotFused(t *testing.T) {
	for _, c := range []struct {
		name string
		code []ir.Instr
	}{
		{"add.i+div.ik+mov.i", []ir.Instr{
			irIns(ir.OpAddI, 2, 0, 0, 0),
			irIns(ir.OpConstInt, 1, no, no, 0),
			irIns(ir.OpDivI, 2, 2, 1, 0),
			irIns(ir.OpMov, 3, 2, no, 0),
		}},
		{"mod.ik+eq.ik+br", []ir.Instr{
			irIns(ir.OpConstInt, 1, no, no, 0),
			irIns(ir.OpModI, 2, 0, 1, 0),
			irIns(ir.OpConstInt, 3, no, no, 0),
			irIns(ir.OpEq, 4, 2, 3, 0),
			irIns(ir.OpBrFalse, no, 4, no, 7),
		}},
	} {
		code := append([]ir.Instr{irIns(ir.OpConstInt, 0, no, no, 7), irIns(ir.OpNop, no, no, no, 0)}, c.code...)
		code = append(code, irIns(ir.OpPrint, no, 2, no, 0), irIns(ir.OpRet, no, no, no, 0))
		p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rI, rI, rB}, Code: code})
		if in := moduleOf(t, p).Funcs[0].Code[2]; in.Len != 1 {
			t.Errorf("%s by constant zero fused into %v", c.name, in.Op)
		}
		if _, err := runBoth(t, c.name+" by zero", p); err == nil {
			t.Errorf("%s by zero did not fault", c.name)
		}
	}
}

// TestConstantDivisorGroups runs the groups that fold a constant divisor,
// add.i+div.ik+mov.i and mod.ik+eq.ik+br, over dividends of both signs and
// the extremes, with divisors that are powers of two, 1, negative, and the
// overflowing -1. A divisor beyond int32 does not fit mod.ik+eq.ik+br's
// Imm half and stays plain.
func TestConstantDivisorGroups(t *testing.T) {
	dividends := []int64{-7, 7, -8, 0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{2, 1, -2, 4, 1 << 62, 3, -1, math.MinInt64} {
		code := []ir.Instr{irIns(ir.OpConstInt, 3, no, no, 0)}
		for _, a := range dividends {
			at := len(code)
			code = append(code,
				irIns(ir.OpConstInt, 0, no, no, a),
				irIns(ir.OpAddI, 4, 0, 3, 0), // a + 0
				irIns(ir.OpConstInt, 1, no, no, k),
				irIns(ir.OpDivI, 2, 4, 1, 0),
				irIns(ir.OpMov, 5, 2, no, 0),
				irIns(ir.OpPrint, no, 5, no, 0),
				irIns(ir.OpConstInt, 1, no, no, k),
				irIns(ir.OpModI, 2, 0, 1, 0),
				irIns(ir.OpConstInt, 6, no, no, 0),
				irIns(ir.OpEq, 7, 2, 6, 0),
				irIns(ir.OpBrFalse, no, 7, no, int64(at+11)),
				irIns(ir.OpPrint, no, 2, no, 0),
			)
		}
		code = append(code, irIns(ir.OpRet, no, no, no, 0))
		p := irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rI, rI, rI, rI, rI, rB}, Code: code})
		m := moduleOf(t, p)
		for i := range dividends {
			groupAt(t, m, 12*i+2, vm.OpAddDivIKMov, 4)
			if int64(int32(k)) == k {
				groupAt(t, m, 12*i+7, vm.OpModIKEqIKBr, 5)
			} else {
				groupAt(t, m, 12*i+7, vm.OpConstI, 1)
			}
		}
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

// TestTailCallRestartRezeroes: a self tail call that restarts a frame
// whose function reads a local before writing it re-zeroes that local, as
// the interpreter's fresh frame for the call does. f(n) adds n into an
// unwritten local and tail-calls f(n-1); its base case returns the local,
// which every activation sees as zero.
func TestTailCallRestartRezeroes(t *testing.T) {
	f := &ir.Func{Name: "f", NParams: 1, RegKinds: []ir.ElemKind{rI, rI, rB, rI, rI, rI}, Code: []ir.Instr{
		irIns(ir.OpConstInt, 3, no, no, 0),
		irIns(ir.OpLeI, 2, 0, 3, 0),
		irIns(ir.OpBrFalse, no, 2, no, 5),
		irIns(ir.OpAddI, 5, 1, 3, 0), // the local, unwritten in this activation
		irIns(ir.OpRet, no, 5, no, 0),
		irIns(ir.OpAddI, 1, 1, 0, 0),
		irIns(ir.OpConstInt, 3, no, no, 1),
		irIns(ir.OpSubI, 4, 0, 3, 0),
		irIns(ir.OpCall, 5, no, no, 1, 4),
		irIns(ir.OpRet, no, 5, no, 0),
	}}
	main := &ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI}, Code: []ir.Instr{
		irIns(ir.OpConstInt, 0, no, no, 5),
		irIns(ir.OpCall, 1, no, no, 1, 0),
		irIns(ir.OpPrint, no, 1, no, 0),
		irIns(ir.OpRet, no, no, no, 0),
	}}
	p := irProgram(main, f)
	m := moduleOf(t, p)
	if fc := m.Funcs[1]; !fc.ZeroInts || fc.Plain[8].Op != vm.OpTailCall {
		t.Fatalf("f: zeroes ints %v, pc 8 is %v; want a zeroing frame with a tail call", fc.ZeroInts, fc.Plain[8].Op)
	}
	if op := m.Funcs[0].Plain[1].Op; op != vm.OpCall {
		t.Fatalf("f(5) compiled to %v, want a frame", op)
	}
	res, err := runBoth(t, "tail call over an unwritten local", p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []string{"0"}) {
		t.Errorf("output %v, want [0]", res.Output)
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
