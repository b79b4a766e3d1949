package vm_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/vm"
)

// TestLinearLevelsMatchesRecursion holds Levels to the recursion it
// stands for: k stepped by Step with Go's wrapping arithmetic until the
// head's test k <= Limit holds, refused past max levels. Levels may refuse
// more (a k that wraps on the way), never accept a different count.
func TestLinearLevelsMatchesRecursion(t *testing.T) {
	ks := []int64{math.MinInt64, math.MinInt64 + 1, -10001, -3, -1, 0, 1, 2, 3, 17, 9999, 10000,
		math.MaxInt64 - 1, math.MaxInt64}
	steps := []int64{-1, -2, -3, -7, -1 << 40, math.MinInt64 + 1, math.MinInt64}
	limits := []int64{math.MinInt64, math.MinInt64 + 1, -5, 0, 2, math.MaxInt64 - 1}
	r := rand.New(rand.NewSource(1))
	for range 300 {
		ks = append(ks, r.Int63()-r.Int63())
		steps = append(steps, -1-r.Int63n(1<<uint(r.Intn(63))))
		limits = append(limits, r.Int63()-r.Int63())
	}
	brute := func(l *vm.Linear, k int64, max int) (int, bool) {
		for n := 0; n <= max; n++ {
			if k <= l.Limit {
				return n, true
			}
			k += l.Step
		}
		return 0, false
	}
	for i, k := range ks {
		for j, step := range steps {
			if i > 20 && j > 20 && (i+j)%37 != 0 {
				continue
			}
			for _, limit := range limits[:6] {
				for _, max := range []int{-1, 0, 1, 3, 10000} {
					l := &vm.Linear{Limit: limit, Step: step}
					n, ok := l.Levels(k, max)
					bn, bok := brute(l, k, max)
					if ok && (!bok || n != bn) || !ok && bok && !wraps(k, step, bn) {
						t.Fatalf("Levels(k=%d, max=%d) with limit %d, step %d = %d, %v; the recursion makes %d, %v",
							k, max, limit, step, n, ok, bn, bok)
					}
				}
			}
		}
	}
}

// wraps reports whether n steps of step from k leave the int64 range.
func wraps(k, step int64, n int) bool {
	for range n {
		next := k + step
		if next > k {
			return true
		}
		k = next
	}
	return false
}

// TestWaterEnergyHasLinearPlan: Water's energy is the shape the plan was
// made for, and every call of it is an OpCallLinear.
func TestWaterEnergyHasLinearPlan(t *testing.T) {
	m := compileApp(t, apps.NameWater)
	calls := 0
	for _, fc := range m.Funcs {
		for pc := range fc.Code {
			in := &fc.Code[pc]
			if in.Op != vm.OpCall && in.Op != vm.OpCallLinear {
				continue
			}
			if callee := m.Funcs[in.Imm]; (callee.Linear != nil) != (in.Op == vm.OpCallLinear) {
				t.Errorf("%s: pc %d: %v of %s, whose plan is %v", fc.Name, pc, in.Op, callee.Name, callee.Linear)
			}
			if in.Op == vm.OpCallLinear {
				calls++
			}
		}
	}
	for _, fc := range m.Funcs {
		if fc.Name != "energy@original" {
			continue
		}
		l := fc.Linear
		if l == nil {
			t.Fatalf("energy has no linear plan:\n%s", fc.Disasm())
		}
		// energy(a, b, k): if k <= 0 { return term(a, b) } return term(a, b) * 0.5 + energy(a, b, k - 1)
		// The arm's term(a, b) repeats the base arm's: a move of its result.
		// k - 1 feeds only the self call, so the arm keeps the move, 0.5 and
		// the product; a level still counts all five of its instructions.
		if l.KParam != 2 || l.Limit != 0 || l.Step != -1 || !l.XFirst || len(l.Base) != 1 || len(l.Arm) != 3 ||
			l.Arm[0].Op != vm.OpMovF || l.Arm[0].A != l.Base[0].Dst || l.LevelLen != 11 || l.BaseLen != 5 {
			t.Errorf("energy's plan: %+v", *l)
		}
		for _, in := range l.Arm {
			if in.Op == vm.OpConstI || in.Op == vm.OpSubI {
				t.Errorf("energy's arm keeps %v, which only k's step reads", in.Op)
			}
		}
	}
	if calls == 0 {
		t.Error("no call of energy is an OpCallLinear")
	}
}
