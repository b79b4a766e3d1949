package interp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
)

// TestPow2DivModMatchGo holds the descent loop's halving and parity, a
// biased shift and a mask, to Go's truncating / and %, for every positive
// power-of-two divisor and dividends of both signs, zero, odd values, the
// neighbours of the divisor and both extremes.
func TestPow2DivModMatchGo(t *testing.T) {
	for s := uint8(0); s <= 62; s++ {
		k := int64(1) << s
		xs := []int64{0, 1, -1, 2, -2, 3, -3, 7, -7, 12345, -12345,
			k, -k, k - 1, -(k - 1), k + 1, -(k + 1), 3*k + 1, -(3*k + 1),
			math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
		for _, x := range xs {
			if got, want := divPow2(x, s), x/k; got != want {
				t.Errorf("divPow2(%d, %d) = %d, want %d", x, s, got, want)
			}
			if got, want := modPow2(x, s), x%k; got != want {
				t.Errorf("modPow2(%d, %d) = %d, want %d", x, s, got, want)
			}
		}
	}
}

// descentSrc is a bisection descent in the shape of Barnes-Hut's tree walk;
// %s is its parity test, then the arguments of the arm it selects and of
// the other arm.
const descentSrc = `
func walk(lo: int, hi: int, k: int): int {
  if hi - lo <= 1 {
    return lo;
  }
  let mid: int = (lo + hi) / 2;
  if %s {
    return walk(%s, k / 2);
  }
  return walk(%s, k / 2);
}
func main() {
  print walk(0, 2, 1);
}
`

// descentWalk compiles walk with the given parity test (== or !=) and arm
// order (swapped moves mid into lo on the arm the test selects), as
// function 1 of a test program.
func descentWalk(t testing.TB, parity string, swapped bool) *ir.Func {
	t.Helper()
	arms := []any{"k % 2 " + parity + " 0", "lo, mid", "mid, hi"}
	if swapped {
		arms[1], arms[2] = arms[2], arms[1]
	}
	c := compile(t, fmt.Sprintf(descentSrc, arms...))
	id := c.Serial.FuncID("walk")
	walk := *c.Serial.Funcs[id]
	walk.Code = slices.Clone(walk.Code)
	for i := range walk.Code {
		if in := &walk.Code[i]; in.Op == ir.OpCall && int(in.Imm) == id {
			in.Imm = 1
		}
	}
	return &walk
}

// zeroingWalk is walk with its base case routed through the read of a
// register nothing writes, two instructions longer: the frame must then
// be zeroed, and Compile builds no descent plan for it.
func zeroingWalk(walk *ir.Func) *ir.Func {
	z := *walk
	z.RegKinds = append(slices.Clone(walk.RegKinds), rI, rI)
	unset, sum := ir.Reg(len(walk.RegKinds)), ir.Reg(len(walk.RegKinds)+1)
	z.Code = slices.Clone(walk.Code)
	i := slices.IndexFunc(z.Code, func(in ir.Instr) bool { return in.Op == ir.OpRet })
	ret := z.Code[i]
	z.Code[i] = irIns(ir.OpJump, no, no, no, int64(len(z.Code)))
	z.Code = append(z.Code, irIns(ir.OpAddI, sum, ret.A, unset, 0), irIns(ir.OpRet, no, sum, no, 0))
	return &z
}

// framedWalk is walk with an unreachable call to main after its last
// return: no longer a leaf, it is never spliced, and every call of it
// pushes a frame whose pc-0 head runs the descent.
func framedWalk(walk *ir.Func) *ir.Func {
	f := *walk
	f.Code = append(slices.Clone(walk.Code), irIns(ir.OpCall, no, no, no, 0), irIns(ir.OpRet, no, no, no, 0))
	return &f
}

// descentDepth is the levels walk descends over [0, 2^descentDepth).
const descentDepth = 8

// descentProgram is main running pre nops, then depth nested calls of a
// function down whose innermost activation calls walk(lo, hi, k), then
// post nops before it prints the result. Over [0, 2^descentDepth) with no
// down frames, walk runs 17 instructions a level (16 down, one return on
// the way back up) and 5 at its base case, and the program runs
// pre+post+descentLen+6 instructions.
func descentProgram(t testing.TB, walk *ir.Func, pre, post, depth int, lo, hi, k int64) *ir.Program {
	t.Helper()
	code := make([]ir.Instr, 0, pre+post+7)
	for range pre {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code,
		irIns(ir.OpConstInt, 0, no, no, lo),
		irIns(ir.OpConstInt, 1, no, no, hi),
		irIns(ir.OpConstInt, 2, no, no, k))
	if depth == 0 {
		code = append(code, irIns(ir.OpCall, 3, no, no, 1, 0, 1, 2))
	} else {
		code = append(code, irIns(ir.OpConstInt, 4, no, no, int64(depth)),
			irIns(ir.OpCall, 3, no, no, 2, 4, 0, 1, 2))
	}
	for range post {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code, irIns(ir.OpPrint, no, 3, no, 0), irIns(ir.OpRet, no, no, no, 0))
	// down(n, lo, hi, k): n == 1 ? walk(lo, hi, k) : down(n-1, lo, hi, k) + 0,
	// a real frame per level (the addition keeps the call out of tail
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
	return irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rI, rI, rI}, Code: code}, walk, down)
}

const descentLen = 17*descentDepth + 5

// TestDescentLoopMatchesInterpreter is the differential test of the
// descent loop and of batched return replay. Its program runs a serial
// prelude of pre instructions before a bisection descent, and pre sweeps
// the descent across the first dispatch's end: the step budget then splits
// the descent at every one of its groups, leaving whole levels to the loop
// and partial ones to the ordinary groups, and the replay of the collapsed
// returns at every offset, and the sweep goes on past both ends of the
// descent. Each program is sized to end exactly at two full budgets, and
// once one instruction later, so a dispatch that ran one instruction too
// many or too few would change the scheduler step count. Results, step
// counts included, must be identical under the two engines, for both
// parity tests (the != walk has no plan: its parity test is no fused
// group), both arm orders and a walk whose frame must be zeroed (no plan;
// the plain head, and a frame of its own: a callee that zeroes registers
// is not spliced), for dividends of both signs, and with each walk spliced
// into its caller (the head fused with the splice's entry) and called in
// a frame of its own. Under -short only the first walk runs.
func TestDescentLoopMatchesInterpreter(t *testing.T) {
	walks := []struct {
		label string
		walk  *ir.Func
		extra int // instructions beyond descentLen
		plan  bool
		frame bool // never spliced
	}{
		{"k % 2 == 0", descentWalk(t, "==", false), 0, true, false},
		{"k % 2 != 0", descentWalk(t, "!=", false), 0, false, false},
		{"k % 2 == 0, arms swapped", descentWalk(t, "==", true), 0, true, false},
		{"k % 2 == 0, zeroed frame", zeroingWalk(descentWalk(t, "==", false)), 2, false, true},
	}
	if testing.Short() {
		walks = walks[:1]
	}
	for _, w := range walks {
		if w.frame {
			descentSweep(t, w.label, w.walk, descentLen+w.extra, w.plan, true)
			continue
		}
		descentSweep(t, w.label+", spliced", w.walk, descentLen+w.extra, w.plan, false)
		descentSweep(t, w.label+", framed", framedWalk(w.walk), descentLen+w.extra, w.plan, true)
	}
}

// descentSweep runs TestDescentLoopMatchesInterpreter's sweep for one walk
// of n instructions, after checking where its plan sits: at walk's pc 0
// when plan, and at the call site in main, fused with the splice's entry,
// unless framed.
func descentSweep(t *testing.T, label string, walk *ir.Func, n int, plan, framed bool) {
	m := moduleOf(t, descentProgram(t, walk, 0, 0, 0, 0, 1, 1))
	fc := m.Funcs[1]
	if head := fc.Code[0].Op; (head == vm.OpDescend) != plan || (len(fc.Descents) > 0) != plan {
		t.Fatalf("%s: walk's head is %v with plan %v; want a plan: %v", label, head, len(fc.Descents) > 0, plan)
	}
	main := m.Funcs[0]
	if enter := main.Code[3].Op; (enter == vm.OpEnterDescend) != (plan && !framed) || (enter == vm.OpCall) != framed {
		t.Fatalf("%s: main's call of walk is %v", label, enter)
	}
	for pre := stepBudget - n - 24; pre <= stepBudget+8; pre++ {
		for _, k := range []int64{0xa5, -0xa5} {
			for _, steps := range []int64{2, 3} {
				post := 2*stepBudget + int(steps) - 2 - (pre + n + 6)
				label := fmt.Sprintf("%s: k=%d, %d nops before, %d after", label, k, pre, post)
				res, err := runBoth(t, label, descentProgram(t, walk, pre, post, 0, 0, 1<<descentDepth, k))
				if err != nil {
					t.Fatal(err)
				}
				if res.Steps != steps {
					t.Fatalf("%s: %d scheduler steps, want %d", label, res.Steps, steps)
				}
			}
		}
	}
}

// FuzzDescent holds the descent loop to the step interpreter on random
// walks: lo, hi and k of either sign (sums and differences may wrap), a
// prelude that moves the budget's end across the descent, depth nested
// frames before the walk (the call-depth check then cuts it), and both
// parity tests and arm orders, the walk spliced into its caller or in a
// frame of its own. The VM's Result, scheduler steps included, or its
// error must equal the interpreter's.
func FuzzDescent(f *testing.F) {
	f.Add(int64(0), int64(1)<<20, int64(0x5a5a5), uint16(4000), uint16(0), false, false, false)
	f.Add(int64(-1000), int64(3000), int64(-77), uint16(4090), uint16(3), true, false, true)
	f.Add(int64(math.MinInt64/2), int64(math.MaxInt64/2), int64(-1), uint16(100), uint16(0), false, true, false)
	f.Add(int64(5), int64(-5), int64(3), uint16(0), uint16(1), true, true, true)
	// The walk starts ten frames short of the call-depth limit: main, 9990
	// down frames and walk, whose tenth and last tail call over [0, 2^10)
	// is the first the check refuses, spliced into the innermost down
	// frame and in a frame of its own.
	f.Add(int64(0), int64(1)<<10, int64(12345), uint16(50), uint16(9990), false, false, false)
	f.Add(int64(0), int64(1)<<10, int64(12345), uint16(50), uint16(9990), false, false, true)
	var walks [2][2][2]*ir.Func
	for i, parity := range []string{"==", "!="} {
		for j := range 2 {
			walks[i][j][0] = descentWalk(f, parity, j == 1)
			walks[i][j][1] = framedWalk(walks[i][j][0])
		}
	}
	f.Fuzz(func(t *testing.T, lo, hi, k int64, pre, depth uint16, ne, swapped, framed bool) {
		walk := walks[b2w(ne)][b2w(swapped)][b2w(framed)]
		p := descentProgram(t, walk, int(pre)%(2*stepBudget), 0, int(depth)%10010, lo, hi, k)
		runBoth(t, fmt.Sprintf("lo=%d hi=%d k=%d pre=%d depth=%d ne=%v swapped=%v framed=%v",
			lo, hi, k, pre, depth, ne, swapped, framed), p)
	})
}
