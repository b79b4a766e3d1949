package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/obl/analysis"
	"repro/internal/obl/ast"
	"repro/internal/obl/syncopt"
)

// The deadlock half of the differential harness: each seeded lock-order
// mutant of the corpus must be flagged by the static analysis (OBL-E104)
// *and* actually deadlock on the simulated multiprocessor, with the
// machine's deadlock report showing the cycle — the mutant's locks held by
// distinct blocked processors with waiters behind them. Conversely, the
// intact programs carry no E104 finding and run to completion.

// deadlockMutant describes one corpus program whose double-wrap mutation
// creates a lock-order cycle.
type deadlockMutant struct {
	file    string
	regions [2]int   // WrapRegion indices, applied in order
	locks   []string // lock names that must appear cross-held in the report
}

var deadlockMutants = []deadlockMutant{
	{file: "mutant_wrap_deadlock", regions: [2]int{0, 2}, locks: []string{"Left", "Right"}},
	{file: "mutant_wrap_selfcycle", regions: [2]int{0, 2}, locks: []string{"Cell", "Cell"}},
}

func TestDeadlockMutantsFlaggedAndDeadlock(t *testing.T) {
	for _, m := range deadlockMutants {
		m := m
		t.Run(m.file, func(t *testing.T) {
			srcBytes, err := os.ReadFile(filepath.Join("testdata", m.file+".obl"))
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)

			// Intact: no E104, and the Original translation terminates.
			base, diags, err := analysis.BuildUnit(src)
			if err != nil || base == nil {
				t.Fatalf("build: %v %v", err, diags)
			}
			for _, d := range base.Validate() {
				if d.Code == analysis.CodeLockOrder {
					t.Fatalf("intact program carries %s: %s", analysis.CodeLockOrder, d)
				}
			}
			baseIR := lowerUnitPolicy(t, base, syncopt.Original)
			if _, err := interp.Run(baseIR, interp.Options{Procs: 8, Policy: "original"}); err != nil {
				t.Fatalf("intact program failed: %v", err)
			}

			// Mutant: wrap the two regions, re-validate, re-run.
			u, _, err := analysis.BuildUnit(src)
			if err != nil {
				t.Fatal(err)
			}
			prog := u.PolicyProg(syncopt.Original)
			for _, n := range m.regions {
				if err := analysis.WrapRegion(prog, n); err != nil {
					t.Fatal(err)
				}
			}

			expectCycle(t, u, m.locks, 8)
		})
	}
}

// expectCycle checks both verdicts on a unit whose Original translation
// has been mutated to acquire the named lock classes in a cycle.
func expectCycle(t *testing.T, u *analysis.Unit, locks []string, procs int) {
	t.Helper()
	// Static verdict: the lock-order analysis flags the cycle on the
	// mutated version, and only OBL-E104 fires — the wrap keeps coverage
	// and equivalence intact, so nothing else may trip.
	var e104 []analysis.Diagnostic
	for _, d := range u.Validate() {
		if d.Severity >= analysis.Warning && d.Code != analysis.CodeLockOrder {
			t.Errorf("wrap mutant tripped %s (want only %s): %s", d.Code, analysis.CodeLockOrder, d)
		}
		if d.Code == analysis.CodeLockOrder {
			e104 = append(e104, d)
		}
	}
	if len(e104) == 0 {
		t.Fatal("static lock-order analysis missed the seeded cycle")
	}
	for _, lock := range locks {
		if !strings.Contains(e104[0].Message, "("+lock+")") {
			t.Errorf("E104 message %q does not name class %s", e104[0].Message, lock)
		}
	}

	// Dynamic verdict: the same mutated translation deadlocks, and the
	// machine's report shows the cycle — both of the mutant's locks held by
	// *different* processors, each with waiters.
	mutIR := lowerUnitPolicy(t, u, syncopt.Original)
	_, err := interp.Run(mutIR, interp.Options{Procs: procs, Policy: "original"})
	if err == nil {
		t.Fatal("mutant ran to completion, want a deadlock")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("mutant failed with %q, want a deadlock report", msg)
	}
	owners := map[string][]string{}
	for _, lock := range locks {
		re := regexp.MustCompile(fmt.Sprintf(`lock %q: owner (\d+), (\d+) waiters`, lock))
		for _, match := range re.FindAllStringSubmatch(msg, -1) {
			if match[2] == "0" {
				continue // a held lock nobody waits for is not part of the cycle
			}
			owners[lock] = append(owners[lock], match[1])
		}
		if len(owners[lock]) == 0 {
			t.Errorf("deadlock report %q does not show lock %s held with waiters", msg, lock)
		}
	}
	distinct := map[string]bool{}
	for _, procs := range owners {
		for _, p := range procs {
			distinct[p] = true
		}
	}
	if len(distinct) < 2 {
		t.Errorf("deadlock report %q does not show the cycle cross-held by two processors", msg)
	}
}

// forwardAcrossCall is the nesting the lock-elimination rules must never
// produce, reduced to what the analysis has to see: outer takes no lock
// itself and passes its receiver nowhere, so a lock on the receiver held
// around the call is held across the acquire in inner without the call
// ever naming it.
const forwardAcrossCall = `
class A {
  x: float;
  method inner() {
    this.x = this.x + 1.0;
  }
  method outer(b: A) {
    b.inner();
  }
}
func compute(as: A[], cnt: int) {
  for i in 0..cnt {
    as[i % 2].outer(as[(i + 1) % 2]);
  }
}
func main() {
  let as: A[] = new A[2];
  as[0] = new A();
  as[1] = new A();
  compute(as, 64);
  print as[0].x;
}
`

// TestLockHeldAcrossCallFlaggedAndDeadlocks wraps the call in the parallel
// loop in a region on its receiver — the lock is then held across a call
// that does not pass it — and wants the same two verdicts: OBL-E104 over
// class A, and a deadlock at two processors with both A locks cross-held.
func TestLockHeldAcrossCallFlaggedAndDeadlocks(t *testing.T) {
	u, diags, err := analysis.BuildUnit(forwardAcrossCall)
	if err != nil || u == nil {
		t.Fatalf("build: %v %v", err, diags)
	}
	for _, d := range u.Validate() {
		if d.Severity >= analysis.Warning {
			t.Fatalf("intact program is not clean: %s", d)
		}
	}
	wrapped := false
	for _, fn := range u.PolicyProg(syncopt.Original).Funcs {
		ast.Inspect(fn.Body, func(s ast.Stmt) bool {
			loop, ok := s.(*ast.ForStmt)
			if !ok || !loop.Parallel {
				return true
			}
			stmt := loop.Body.Stmts[0].(*ast.ExprStmt)
			loop.Body.Stmts[0] = &ast.SyncBlock{
				P:    stmt.P,
				Lock: ast.CloneExpr(stmt.X.(*ast.CallExpr).Recv),
				Body: &ast.Block{P: stmt.P, Stmts: []ast.Stmt{stmt}},
			}
			wrapped = true
			return false
		})
	}
	if !wrapped {
		t.Fatal("no parallel loop to mutate")
	}
	expectCycle(t, u, []string{"A", "A"}, 2)
}
