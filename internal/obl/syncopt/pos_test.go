package syncopt_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/commute"
	"repro/internal/obl/parser"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
)

// TestRegionsCarryPositions checks that every critical region the optimizer
// synthesizes — default placement, merged, lifted, expanded, and the
// conditional sites of the flag-dispatch version — carries a real source
// position, so diagnostics anchored to regions never print 0:0.
func TestRegionsCarryPositions(t *testing.T) {
	for _, name := range apps.Names {
		src, err := apps.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		marked := buildMarked(t, src)
		for _, policy := range syncopt.AllPolicies {
			prog, err := syncopt.Rewrite(marked, syncopt.ParamsFor(policy))
			if err != nil {
				t.Fatal(err)
			}
			checkRegionPositions(t, name+"/"+string(policy), prog)
		}
		prog, _, err := syncopt.RewriteFlagged(marked)
		if err != nil {
			t.Fatal(err)
		}
		checkRegionPositions(t, name+"/flagged", prog)
	}
}

func buildMarked(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	commute.New(info, callgraph.Build(info)).AnalyzeLoops()
	return prog
}

func checkRegionPositions(t *testing.T, label string, prog *ast.Program) {
	t.Helper()
	n := 0
	forEachRegion(prog, func(sb *ast.SyncBlock) {
		n++
		if sb.P.Line <= 0 {
			t.Errorf("%s: region on %s has zero position", label, ast.ExprString(sb.Lock))
		}
		if sb.Body.P.Line <= 0 {
			t.Errorf("%s: region body on %s has zero position", label, ast.ExprString(sb.Lock))
		}
	})
	if n == 0 {
		t.Errorf("%s: no regions generated", label)
	}
}

func forEachRegion(p *ast.Program, f func(*ast.SyncBlock)) {
	visit := func(s ast.Stmt) bool {
		if sb, ok := s.(*ast.SyncBlock); ok {
			f(sb)
		}
		return true
	}
	for _, fn := range p.Funcs {
		ast.Inspect(fn.Body, visit)
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			ast.Inspect(m.Body, visit)
		}
	}
}
