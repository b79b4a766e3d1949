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
	for s := 0; s <= 62; s++ {
		k := int64(1) << s
		xs := []int64{0, 1, -1, 2, -2, 3, -3, 7, -7, 12345, -12345,
			k, -k, k - 1, -(k - 1), k + 1, -(k + 1), 3*k + 1, -(3*k + 1),
			math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
		for _, x := range xs {
			if got, want := divPow2(x, k), x/k; got != want {
				t.Errorf("divPow2(%d, %d) = %d, want %d", x, k, got, want)
			}
			if got, want := modPow2(x, k), x%k; got != want {
				t.Errorf("modPow2(%d, %d) = %d, want %d", x, k, got, want)
			}
		}
	}
}

// descentSrc is a bisection descent in the shape of Barnes-Hut's tree walk;
// %s is its parity test.
const descentSrc = `
func walk(lo: int, hi: int, k: int): int {
  if hi - lo <= 1 {
    return lo;
  }
  let mid: int = (lo + hi) / 2;
  if %s {
    return walk(lo, mid, k / 2);
  }
  return walk(mid, hi, k / 2);
}
func main() {
  print walk(0, 2, 1);
}
`

// descentDepth is the levels walk descends over [0, 2^descentDepth).
const descentDepth = 8

// descentProgram is main running pre nops, then walk(0, 2^descentDepth, k),
// then post nops before it prints the result. walk runs 17 instructions a
// level (16 down, one return on the way back up) and 5 at its base case,
// so the program runs pre+post+descentLen+6 instructions.
func descentProgram(t *testing.T, walk *ir.Func, pre, post int, k int64) *ir.Program {
	t.Helper()
	code := make([]ir.Instr, 0, pre+post+6)
	for range pre {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code,
		irIns(ir.OpConstInt, 0, no, no, 0),
		irIns(ir.OpConstInt, 1, no, no, 1<<descentDepth),
		irIns(ir.OpConstInt, 2, no, no, k),
		irIns(ir.OpCall, 3, no, no, 1, 0, 1, 2))
	for range post {
		code = append(code, irIns(ir.OpNop, no, no, no, 0))
	}
	code = append(code, irIns(ir.OpPrint, no, 3, no, 0), irIns(ir.OpRet, no, no, no, 0))
	return irProgram(&ir.Func{Name: "main", RegKinds: []ir.ElemKind{rI, rI, rI, rI}, Code: code}, walk)
}

const descentLen = 17*descentDepth + 5

// TestDescentLoopMatchesInterpreter is the differential test of the
// descent loop and of batched return replay. Its program runs a serial
// prelude of pre instructions before a bisection descent, and pre sweeps
// the descent across the first dispatch's end: the step budget then splits
// the loop at every one of its groups and the replay of the collapsed
// returns at every offset, and the sweep goes on past both ends of the
// descent. Each program is sized to end exactly at two full budgets, and
// once one instruction later, so a dispatch that ran one instruction too
// many or too few would change the scheduler step count. Results,
// step counts included, must be identical under the two engines, for
// both parity tests (one under -short) and dividends of both signs.
func TestDescentLoopMatchesInterpreter(t *testing.T) {
	parities := []string{"k % 2 == 0", "k % 2 != 0"}
	if testing.Short() {
		parities = parities[:1]
	}
	for _, parity := range parities {
		c := compile(t, fmt.Sprintf(descentSrc, parity))
		id := c.Serial.FuncID("walk")
		walk := *c.Serial.Funcs[id]
		walk.Code = slices.Clone(walk.Code)
		for i := range walk.Code {
			if in := &walk.Code[i]; in.Op == ir.OpCall && int(in.Imm) == id {
				in.Imm = 1 // walk is function 1 of the test program
			}
		}
		if head := moduleOf(t, descentProgram(t, &walk, 0, 0, 1)).Funcs[1].Code[0]; head.Op != vm.OpDescend {
			t.Fatalf("%s: walk's head is %v, want %v", parity, head.Op, vm.OpDescend)
		}
		for pre := stepBudget - descentLen - 24; pre <= stepBudget+8; pre++ {
			for _, k := range []int64{0xa5, -0xa5} {
				for _, steps := range []int64{2, 3} {
					post := 2*stepBudget + int(steps) - 2 - (pre + descentLen + 6)
					label := fmt.Sprintf("%s: k=%d, %d nops before, %d after", parity, k, pre, post)
					res, err := runBoth(t, label, descentProgram(t, &walk, pre, post, k))
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
}
