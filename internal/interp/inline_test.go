package interp

import (
	"fmt"
	"testing"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
)

// tailLeaf is a self-tail-recursive leaf, leaf(n, x, d): n <= 0 ? x / d :
// leaf(n-1, x+n, d). It faults with a division by zero at its base case
// when d is 0. fused puts the n-1 right before the tail call, where the
// two fuse into arith.ik+tailcall; otherwise the tail call is plain.
func tailLeaf(fused bool) *ir.Func {
	step := []ir.Instr{
		irIns(ir.OpAddI, 6, 1, 0, 0),       // x + n
		irIns(ir.OpConstInt, 7, no, no, 1), // 1
		irIns(ir.OpSubI, 8, 0, 7, 0),       // n - 1
	}
	if !fused {
		step = []ir.Instr{step[1], step[2], step[0]}
	}
	code := []ir.Instr{
		irIns(ir.OpConstInt, 3, no, no, 0),
		irIns(ir.OpLeI, 4, 0, 3, 0),
		irIns(ir.OpBrFalse, no, 4, no, 5),
		irIns(ir.OpDivI, 5, 1, 2, 0),
		irIns(ir.OpRet, no, 5, no, 0),
	}
	code = append(code, step...)
	code = append(code, irIns(ir.OpCall, 9, no, no, 1, 8, 6, 2), irIns(ir.OpRet, no, 9, no, 0))
	return &ir.Func{Name: "leaf", NParams: 3, RegKinds: []ir.ElemKind{rI, rI, rI, rI, rB, rI, rI, rI, rI, rI}, Code: code}
}

// inlineProgram is main running pre nops, then reps calls of leaf(n, x, d)
// summed (the result discarded when discard), each through depth nested
// frames of a function down whose innermost activation calls the leaf,
// before it prints the sum.
func inlineProgram(leaf *ir.Func, pre, reps, depth int, n, x, d int64, discard bool) *ir.Program {
	code := make([]ir.Instr, 0, pre+16)
	for range pre {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code,
		irIns(ir.OpConstInt, 0, no, no, 0),
		irIns(ir.OpConstInt, 1, no, no, int64(reps)),
		irIns(ir.OpConstInt, 3, no, no, n),
		irIns(ir.OpConstInt, 4, no, no, x),
		irIns(ir.OpConstInt, 5, no, no, d),
		irIns(ir.OpConstInt, 7, no, no, 0),
		irIns(ir.OpConstInt, 9, no, no, int64(depth)))
	loop := int64(len(code))
	res := ir.Reg(6)
	if discard {
		res = no
	}
	call := irIns(ir.OpCall, res, no, no, 1, 3, 4, 5)
	if depth > 0 {
		call = irIns(ir.OpCall, res, no, no, 2, 9, 3, 4, 5)
	}
	code = append(code,
		irIns(ir.OpLtI, 2, 0, 1, 0),
		irIns(ir.OpBrFalse, no, 2, no, loop+8),
		call,
		irIns(ir.OpAddI, 7, 7, 6, 0), // r6 reads zero when discarded
		irIns(ir.OpConstInt, 8, no, no, 1),
		irIns(ir.OpAddI, 0, 0, 8, 0),
		irIns(ir.OpJump, no, no, no, loop),
		irIns(ir.OpPrint, no, 7, no, 0),
		irIns(ir.OpRet, no, no, no, 0))
	// down(k, n, x, d): k == 1 ? leaf(n, x, d) : down(k-1, n, x, d) + 0, a
	// real frame per level (the addition keeps the call out of tail
	// position).
	down := &ir.Func{Name: "down", NParams: 4, RegKinds: []ir.ElemKind{rI, rI, rI, rI, rI, rB, rI, rI, rI}, Code: []ir.Instr{
		irIns(ir.OpConstInt, 4, no, no, 1),
		irIns(ir.OpEq, 5, 0, 4, 0),
		irIns(ir.OpBrFalse, no, 5, no, 5),
		irIns(ir.OpCall, 6, no, no, 1, 1, 2, 3),
		irIns(ir.OpRet, no, 6, no, 0),
		irIns(ir.OpSubI, 7, 0, 4, 0),
		irIns(ir.OpCall, 6, no, no, 2, 7, 1, 2, 3),
		irIns(ir.OpConstInt, 8, no, no, 0),
		irIns(ir.OpAddI, 6, 6, 8, 0),
		irIns(ir.OpRet, no, 6, no, 0),
	}}
	main := &ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rB, rI, rI, rI, rI, rI, rI, rI}, Code: code}
	return irProgram(main, leaf, down)
}

// FuzzInline holds the splices of self-tail-recursive leaves to the step
// interpreter: recursion depths 0-64, a division by zero at the callee's
// base case, nested frames that put the call-depth limit inside the
// callee's recursion, a prelude that moves the step budget's end across
// the splice (its entry, its tail calls and the replay of its collapsed
// returns), a MaxSteps that ends the run inside it, the tail call plain
// and fused, and the result used or discarded. The VM's Result, scheduler
// steps included, or its fault message must equal the interpreter's.
func FuzzInline(f *testing.F) {
	f.Add(uint8(10), int64(7), int64(3), uint16(0), uint8(1), uint16(0), uint8(0), true, false)
	f.Add(uint8(64), int64(-5), int64(2), uint16(4060), uint8(3), uint16(0), uint8(0), false, false)
	f.Add(uint8(0), int64(9), int64(4), uint16(4093), uint8(2), uint16(1), uint8(0), true, true)
	// The budget ends inside the replay of 40 collapsed returns.
	f.Add(uint8(40), int64(1), int64(1), uint16(3780), uint8(1), uint16(0), uint8(0), true, false)
	// A division by zero at the base case, inside the splice.
	f.Add(uint8(12), int64(100), int64(0), uint16(17), uint8(1), uint16(2), uint8(0), false, false)
	// The call-depth limit falls inside the callee's recursion: main, 9970
	// down frames and the leaf, 64 levels deep.
	f.Add(uint8(64), int64(3), int64(5), uint16(300), uint8(1), uint16(9970), uint8(0), true, false)
	f.Add(uint8(64), int64(3), int64(5), uint16(300), uint8(1), uint16(9970), uint8(0), false, true)
	// The deepest nesting at which four 64-level calls in a row fit: a
	// splice that kept its frame in the depth count after returning would
	// overflow on the second.
	f.Add(uint8(64), int64(3), int64(5), uint16(0), uint8(3), uint16(9935), uint8(0), true, false)
	// MaxSteps ends the run after the first dispatches, inside the splice.
	f.Add(uint8(50), int64(3), int64(5), uint16(4000), uint8(3), uint16(0), uint8(1), true, false)
	f.Add(uint8(64), int64(3), int64(5), uint16(4090), uint8(3), uint16(0), uint8(1), false, true)
	leaves := [2]*ir.Func{tailLeaf(false), tailLeaf(true)}
	f.Fuzz(func(t *testing.T, n uint8, x, d int64, pre uint16, reps uint8, depth uint16, maxSteps uint8, fused, discard bool) {
		p := inlineProgram(leaves[b2w(fused)], int(pre)%(2*stepBudget), 1+int(reps)%4, int(depth)%10010,
			int64(n)%65, x, d%8, discard)
		label := fmt.Sprintf("n=%d x=%d d=%d pre=%d reps=%d depth=%d maxSteps=%d fused=%v discard=%v",
			n, x, d, pre, reps, depth, maxSteps, fused, discard)
		runBothWith(t, label, p, Options{Procs: 1, MaxSteps: int64(maxSteps) % 8})
	})
}

// TestInlineSplicesTheLeaf checks FuzzInline's programs splice what they
// mean to: main holds the leaf's splice (entry, tail call and OpIRetN)
// and pushes no frame for it, plain or fused as asked.
func TestInlineSplicesTheLeaf(t *testing.T) {
	for _, fused := range []bool{false, true} {
		main := moduleOf(t, inlineProgram(tailLeaf(fused), 0, 1, 0, 3, 1, 1, false)).Funcs[0]
		ops := map[vm.Op]int{}
		for pc := range main.Code {
			ops[main.Code[pc].Op]++
			ops[main.Plain[pc].Op]++
		}
		if ops[vm.OpCall] != 0 || ops[vm.OpCallEnter] != 2 || ops[vm.OpIRetN] != 4 || ops[vm.OpTailCall] != 2 ||
			(ops[vm.OpIKTailCall] == 1) != fused {
			t.Errorf("fused=%v: main's code and plain streams hold %v", fused, ops)
		}
		if _, err := runBoth(t, fmt.Sprintf("fused=%v", fused), inlineProgram(tailLeaf(fused), 0, 2, 0, 3, 1, 1, false)); err != nil {
			t.Fatal(err)
		}
	}
}
