package vm_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
	"repro/internal/obl/polgen"
	"repro/internal/obl/vm"
)

// ins builds an ir.Instr with every unused operand NoReg.
func ins(op ir.Op, dst, a, b ir.Reg, imm int64, args ...ir.Reg) ir.Instr {
	return ir.Instr{Op: op, Dst: dst, A: a, B: b, C: ir.NoReg, Imm: imm, Args: args}
}

const (
	kI = ir.ElemInt
	kF = ir.ElemFloat
	kR = ir.ElemRef
	no = ir.NoReg
)

// handProgram wraps hand-built functions (main first) into a program.
func handProgram(funcs ...*ir.Func) *ir.Program {
	p := &ir.Program{Funcs: funcs, FuncByName: map[string]int{}}
	for i, f := range funcs {
		f.NRegs = len(f.RegKinds)
		p.FuncByName[f.Name] = i
	}
	return p
}

var voidMain = &ir.Func{Name: "main", RegKinds: []ir.ElemKind{}, Code: []ir.Instr{ins(ir.OpRet, no, no, no, 0)}}

// TestZeroingLiveness pins the frame-zeroing decision on hand-built
// functions: a bank is zeroed exactly when one of its non-parameter
// registers can be read before it is written.
func TestZeroingLiveness(t *testing.T) {
	callee := &ir.Func{Name: "callee", NParams: 1, RegKinds: []ir.ElemKind{kR},
		Code: []ir.Instr{ins(ir.OpRet, no, no, no, 0)}}
	cases := []struct {
		name               string
		f                  *ir.Func
		ints, floats, refs bool
	}{
		{name: "every local written first",
			f: &ir.Func{Name: "f", NParams: 1, RegKinds: []ir.ElemKind{kI, kI, kF, kR}, Code: []ir.Instr{
				ins(ir.OpMov, 1, 0, no, 0), // reads only the parameter
				{Op: ir.OpConstFloat, Dst: 2, A: no, B: no, C: no, F: 1.5},
				ins(ir.OpConstNil, 3, no, no, 0),
				ins(ir.OpPrint, no, 2, no, 0),
				ins(ir.OpPrint, no, 3, no, 0),
				ins(ir.OpRet, no, 1, no, 0),
			}}},
		{name: "unwritten on one branch only", ints: true,
			f: &ir.Func{Name: "f", NParams: 1, RegKinds: []ir.ElemKind{kI, kI, kF}, Code: []ir.Instr{
				ins(ir.OpBrFalse, no, 0, no, 2),
				ins(ir.OpConstInt, 1, no, no, 5),
				ins(ir.OpRet, no, 1, no, 0), // r1 unwritten when the branch is taken
			}}},
		{name: "read reached only through a backward jump", floats: true,
			// The read at pc 1 precedes, in code order, the only path to it
			// (0 -> 3 -> 4 -> 1): a single reverse sweep misses it.
			f: &ir.Func{Name: "f", RegKinds: []ir.ElemKind{kF, kF, kI}, Code: []ir.Instr{
				ins(ir.OpJump, no, no, no, 3),
				ins(ir.OpMov, 1, 0, no, 0),
				ins(ir.OpRet, no, 1, no, 0),
				ins(ir.OpConstInt, 2, no, no, 0),
				ins(ir.OpJump, no, no, no, 1),
			}}},
		{name: "write inside the loop does not cover the first trip", ints: true,
			f: &ir.Func{Name: "f", NParams: 1, RegKinds: []ir.ElemKind{kI, kI, kI}, Code: []ir.Instr{
				ins(ir.OpBrFalse, no, 0, no, 5),
				ins(ir.OpMov, 2, 1, no, 0), // r1 read before the write below
				ins(ir.OpConstInt, 1, no, no, 7),
				ins(ir.OpConstInt, 0, no, no, 0),
				ins(ir.OpJump, no, no, no, 0),
				ins(ir.OpRet, no, no, no, 0),
			}}},
		{name: "read as a call argument", refs: true,
			f: &ir.Func{Name: "f", RegKinds: []ir.ElemKind{kI, kR}, Code: []ir.Instr{
				ins(ir.OpConstInt, 0, no, no, 1),
				ins(ir.OpCall, no, no, no, 2, 1), // callee(r1), r1 never written
				ins(ir.OpRet, no, no, no, 0),
			}}},
	}
	for _, tc := range cases {
		m, err := vm.Compile(handProgram(voidMain, tc.f, callee))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fc := m.Funcs[1]
		if fc.ZeroInts != tc.ints || fc.ZeroFloats != tc.floats || fc.ZeroRefs != tc.refs {
			t.Errorf("%s: zeroing ints/floats/refs = %v/%v/%v, want %v/%v/%v", tc.name,
				fc.ZeroInts, fc.ZeroFloats, fc.ZeroRefs, tc.ints, tc.floats, tc.refs)
		}
		if got := liveAtEntryZeroing(tc.f, fc); got != [3]bool{tc.ints, tc.floats, tc.refs} {
			t.Errorf("%s: the corpus oracle says %v", tc.name, got)
		}
		if c := m.Funcs[2]; c.ZeroInts || c.ZeroFloats || c.ZeroRefs {
			t.Errorf("%s: callee with every parameter passed is zeroed", tc.name)
		}
	}
}

// TestZeroingKeptWhenParametersNotCovered: parameters are exempt from
// zeroing only where every activation site writes all of them.
func TestZeroingKeptWhenParametersNotCovered(t *testing.T) {
	readsParam := func(name string) *ir.Func {
		return &ir.Func{Name: name, NParams: 2, RegKinds: []ir.ElemKind{kI, kI},
			Code: []ir.Instr{ins(ir.OpRet, no, 1, no, 0)}}
	}
	short := &ir.Func{Name: "main", RegKinds: []ir.ElemKind{kI, kI}, Code: []ir.Instr{
		ins(ir.OpConstInt, 0, no, no, 1),
		ins(ir.OpCall, 1, no, no, 1, 0), // one argument for two parameters
		ins(ir.OpRet, no, no, no, 0),
	}}
	m, err := vm.Compile(handProgram(short, readsParam("under"), readsParam("uncalled")))
	if err != nil {
		t.Fatal(err)
	}
	if fc := m.Funcs[1]; !fc.ZeroInts || !fc.ZeroFloats || !fc.ZeroRefs {
		t.Error("function called with too few arguments is not fully zeroed")
	}
	if fc := m.Funcs[2]; fc.ZeroInts {
		t.Error("parameters of a function with no short activation site are zeroed")
	}
	// main itself is entered with no arguments at all.
	m, err = vm.Compile(handProgram(readsParam("main")))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Funcs[0].ZeroInts {
		t.Error("main with parameters is not zeroed")
	}
}

// liveAtEntryZeroing is an independent oracle for the zeroing decision: the
// compiler runs a forward definitely-written analysis over the bytecode,
// this runs backward liveness over the IR (whose unused operands are NoReg)
// and reports the banks holding a non-parameter register live at entry.
func liveAtEntryZeroing(f *ir.Func, fc *vm.FuncCode) (zero [3]bool) {
	n := len(f.Code)
	tailCall := make([]bool, n) // by source pc: inline expansion shifts slots
	for pc, in := range fc.Plain {
		if in.Op == vm.OpTailCall {
			tailCall[fc.Src[pc].PC] = true
		}
	}
	live := make([][]bool, n+1) // live-in per pc; row n (off the end) stays empty
	for pc := range live {
		live[pc] = make([]bool, f.NRegs)
	}
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			in := f.Code[pc]
			var succ []int64
			switch {
			case in.Op == ir.OpJump:
				succ = []int64{in.Imm}
			case in.Op == ir.OpBrFalse:
				succ = []int64{in.Imm, int64(pc + 1)}
			case in.Op == ir.OpRet, tailCall[pc]:
			default:
				succ = []int64{int64(pc + 1)}
			}
			row := make([]bool, f.NRegs)
			for _, s := range succ {
				if s >= 0 && s <= int64(n) {
					for r, l := range live[s] {
						row[r] = row[r] || l
					}
				}
			}
			if in.Dst != no {
				row[in.Dst] = false
			}
			for _, r := range append([]ir.Reg{in.A, in.B, in.C}, in.Args...) {
				if r != no {
					row[r] = true
				}
			}
			for r := range row {
				if row[r] != live[pc][r] {
					live[pc][r], changed = row[r], true
				}
			}
		}
	}
	for r := f.NParams; r < f.NRegs; r++ {
		if live[0][r] {
			zero[fc.RegBank[r]] = true
		}
	}
	return zero
}

// TestZeroingMatchesOracleOnCorpus checks every function of the three
// applications — all three builds, and the parallel build over the
// generated 18-spec policy space — against the liveness oracle, and reports
// how many frames still need zeroing.
func TestZeroingMatchesOracleOnCorpus(t *testing.T) {
	funcs, zeroed := 0, 0
	check := func(label string, p *ir.Program) {
		m, err := vm.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for id, fc := range m.Funcs {
			want := liveAtEntryZeroing(p.Funcs[id], fc)
			got := [3]bool{fc.ZeroInts, fc.ZeroFloats, fc.ZeroRefs}
			if got != want {
				t.Errorf("%s/%s: zeroing ints/floats/refs = %v, oracle says %v", label, fc.Name, got, want)
			}
			funcs++
			if got != [3]bool{} {
				zeroed++
				t.Logf("%s/%s needs zeroing (ints/floats/refs %v)", label, fc.Name, got)
			}
		}
	}
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/parallel", c.Parallel)
		check(name+"/serial", c.Serial)
		g, err := apps.CompileWithSpecs(name, polgen.Space())
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/generated", g.Parallel)
	}
	t.Logf("%d functions, %d with a zeroed bank", funcs, zeroed)
	if funcs == 0 {
		t.Fatal("empty corpus")
	}
}

// TestTailCallMovesSequenced compiles `return f(x, y, z)` for every choice
// of x, y, z among the three parameters and a local, and checks that
// running the emitted moves in order has the effect of the parallel
// assignment — including the swaps and rotations that need a parked value.
func TestTailCallMovesSequenced(t *testing.T) {
	for n := 0; n < 4*4*4; n++ {
		srcs := []ir.Reg{ir.Reg(n % 4), ir.Reg(n / 4 % 4), ir.Reg(n / 16)}
		f := &ir.Func{Name: "main", NParams: 3, RegKinds: []ir.ElemKind{kI, kI, kI, kI, kI}, Code: []ir.Instr{
			ins(ir.OpConstInt, 3, no, no, 99),
			ins(ir.OpCall, 4, no, no, 0, srcs...),
			ins(ir.OpRet, no, 4, no, 0),
		}}
		m, err := vm.Compile(handProgram(f))
		if err != nil {
			t.Fatal(err)
		}
		call := m.Funcs[0].Code[1]
		if call.Op != vm.OpTailCall {
			t.Fatalf("args %v: not a tail call (%v)", srcs, call.Op)
		}
		regs := []int64{10, 20, 30, 40, 50}
		want := []int64{regs[srcs[0]], regs[srcs[1]], regs[srcs[2]]}
		for _, mv := range call.Args {
			regs[mv.Dst] = regs[mv.Src]
		}
		for i := range want {
			if regs[i] != want[i] {
				t.Errorf("args %v: moves %v leave parameter %d = %d, want %d", srcs, call.Args, i, regs[i], want[i])
			}
		}
	}
	// A swap with no local to park a value in stays an ordinary call.
	swap := &ir.Func{Name: "main", NParams: 2, RegKinds: []ir.ElemKind{kI, kI}, Code: []ir.Instr{
		ins(ir.OpCall, no, no, no, 0, 1, 0),
		ins(ir.OpRet, no, no, no, 0),
	}}
	m, err := vm.Compile(handProgram(swap))
	if err != nil {
		t.Fatal(err)
	}
	if op := m.Funcs[0].Code[0].Op; op != vm.OpCall {
		t.Errorf("swap without a free local compiled to %v, want a plain call", op)
	}
}
