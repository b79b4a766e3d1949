package syncopt

import (
	"testing"

	"repro/internal/obl/ast"
)

// These tests pin down how call-graph cycle detection feeds the policy
// decisions: a candidate region enlargement whose span can reach a
// recursive call must be declined by Bounded (the region size would be
// unbounded, §3.3) while Aggressive performs it anyway. Both direct and
// mutual recursion must be recognized, in the per-policy rewriter and in
// the flag-dispatch site assignment.

// The candidate span is the serial loop inside combine (the parallel loop
// itself is never lifted across): its regions share the lock on this, so
// Aggressive wraps the loop in one region — but the span also calls the
// recursive descent, so Bounded must keep the small regions.
const directRecursion = `
extern f(x: float): float cost 10;
class Acc {
  a: float;
  method rec(n: int): int {
    if (n <= 1) {
      return 1;
    }
    return this.rec((n - 1));
  }
  method bump(x: float) {
    this.a = (this.a + x);
  }
  method combine(n: int) {
    for k in 0..n {
      let j: int = this.rec(k);
      this.bump(tofloat(j));
    }
  }
}
func run(acc: Acc, n: int) {
  for i in 0..n {
    acc.combine(4);
  }
}
func main() {
  let acc: Acc = new Acc();
  run(acc, 4);
  print acc.a;
}
`

const mutualRecursion = `
extern f(x: float): float cost 10;
class Acc {
  a: float;
  method even(n: int): int {
    if (n <= 0) {
      return 1;
    }
    return this.odd((n - 1));
  }
  method odd(n: int): int {
    if (n <= 0) {
      return 0;
    }
    return this.even((n - 1));
  }
  method bump(x: float) {
    this.a = (this.a + x);
  }
  method combine(n: int) {
    for k in 0..n {
      let j: int = this.even(k);
      this.bump(tofloat(j));
    }
  }
}
func run(acc: Acc, n: int) {
  for i in 0..n {
    acc.combine(4);
  }
}
func main() {
  let acc: Acc = new Acc();
  run(acc, 4);
  print acc.a;
}
`

// liftedLoops counts regions that directly wrap a for loop — the shape the
// loop lift produces.
func liftedLoops(p *ast.Program) int {
	n := 0
	count := func(s ast.Stmt) bool {
		if sb, ok := s.(*ast.SyncBlock); ok {
			for _, st := range sb.Body.Stmts {
				if _, ok := st.(*ast.ForStmt); ok {
					n++
				}
			}
		}
		return true
	}
	for _, fn := range p.Funcs {
		ast.Inspect(fn.Body, count)
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			ast.Inspect(m.Body, count)
		}
	}
	return n
}

func TestBoundedDeclinesRecursiveSpans(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"direct", directRecursion},
		{"mutual", mutualRecursion},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			bounded := applyPolicy(t, tc.src, Bounded)
			if n := liftedLoops(bounded); n != 0 {
				t.Errorf("bounded lifted %d loop(s) whose span reaches a recursion", n)
			}
			aggressive := applyPolicy(t, tc.src, Aggressive)
			if n := liftedLoops(aggressive); n == 0 {
				t.Errorf("aggressive did not lift the loop:\n%s", ast.Print(aggressive))
			}
		})
	}
}

// TestFlaggedSitesRespectCycles checks the same decision in the
// flag-dispatch version: the region enlargement whose span reaches the
// recursion appears as a conditional site that Aggressive enables and
// Bounded leaves disabled, so the two policies' views of the single
// program diverge exactly at the cycle.
func TestFlaggedSitesRespectCycles(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"direct", directRecursion},
		{"mutual", mutualRecursion},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog, fi := applyFlagged(t, tc.src)
			if fi.NumSites == 0 {
				t.Fatalf("no conditional sites generated:\n%s", ast.Print(prog))
			}
			aggressiveOnly, bounded := 0, 0
			for site := 1; site <= fi.NumSites; site++ {
				if fi.ActiveFor(site, Aggressive) && !fi.ActiveFor(site, Bounded) {
					aggressiveOnly++
				}
				if fi.ActiveFor(site, Bounded) {
					bounded++
				}
			}
			if aggressiveOnly == 0 {
				t.Errorf("no site is aggressive-only: bounded accepted every enlargement despite the recursion:\n%s",
					ast.Print(prog))
			}
			// Bounded must still synchronize somewhere: the small per-update
			// regions stay active.
			if bounded == 0 {
				t.Errorf("bounded view has no active regions at all")
			}
		})
	}
}
