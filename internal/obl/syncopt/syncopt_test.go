package syncopt

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/commute"
	"repro/internal/obl/parser"
	"repro/internal/obl/sema"
)

// prepare parses, checks, analyzes and marks a program.
func prepare(t *testing.T, src string) *ast.Program {
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

// applyPolicy runs the full per-policy transformation on a fresh parse.
func applyPolicy(t *testing.T, src string, policy Policy) *ast.Program {
	t.Helper()
	prog, err := Rewrite(prepare(t, src), ParamsFor(policy))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sema.Check(prog); err != nil {
		t.Fatalf("transformed program fails checking: %v\n%s", err, ast.Print(prog))
	}
	return prog
}

// applyFlagged runs the flag-dispatch transformation on a fresh parse.
func applyFlagged(t *testing.T, src string) (*ast.Program, *FlaggedInfo) {
	t.Helper()
	prog, fi, err := RewriteFlagged(prepare(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sema.Check(prog); err != nil {
		t.Fatalf("flagged program fails checking: %v\n%s", err, ast.Print(prog))
	}
	return prog, fi
}

const twoUpdates = `
extern f(x: float): float cost 10;
class Acc {
  a: float;
  b: float;
  method bump(x: float) {
    let v: float = f(x);
    this.a = this.a + v;
    this.b = this.b + v;
  }
}
func run(acc: Acc, n: int) {
  for i in 0..n { acc.bump(1.0); }
}
func main() { let acc: Acc = new Acc(); run(acc, 4); print acc.a; }
`

func countSync(p *ast.Program) int {
	return strings.Count(ast.Print(p), "acquire(")
}

func TestOriginalPlacementOnePerUpdate(t *testing.T) {
	prog := applyPolicy(t, twoUpdates, Original)
	if got := countSync(prog); got != 2 {
		t.Errorf("original sync sites = %d, want 2\n%s", got, ast.Print(prog))
	}
	if strings.Contains(ast.Print(prog), UnsyncSuffix) {
		t.Error("original policy generated unsync variants")
	}
}

func TestBoundedMergesAndExpands(t *testing.T) {
	prog := applyPolicy(t, twoUpdates, Bounded)
	text := ast.Print(prog)
	// The two update regions merge inside bump, and the caller takes over
	// the lock around the call to the unsync variant.
	if !strings.Contains(text, "bump__unsync") {
		t.Errorf("bounded did not expand bump:\n%s", text)
	}
}

func TestAggressiveLiftsLoop(t *testing.T) {
	prog := applyPolicy(t, twoUpdates, Aggressive)
	text := ast.Print(prog)
	// With no recursion anywhere, aggressive lifts the lock out of the
	// run loop body's iterations entirely: the parallel body acquires acc
	// once per iteration around bump__unsync.
	if !strings.Contains(text, "acquire(acc.mutex)") {
		t.Errorf("aggressive did not lift to caller:\n%s", text)
	}
}

func TestBoundedDeclinesCycles(t *testing.T) {
	src := `
extern f(x: float): float cost 10;
class Acc {
  a: float;
  method bump(x: float, d: int) {
    let v: float = helper(x, d);
    this.a = this.a + v;
  }
}
func helper(x: float, d: int): float {
  if d <= 0 { return f(x); }
  return helper(x, d - 1);
}
func run(acc: Acc, n: int) {
  for i in 0..n { acc.bump(1.0, 2); }
}
func main() { let acc: Acc = new Acc(); run(acc, 4); print acc.a; }
`
	bounded := ast.Print(applyPolicy(t, src, Bounded))
	aggressive := ast.Print(applyPolicy(t, src, Aggressive))
	// The region around the call would contain the recursive helper:
	// Bounded declines the expansion; Aggressive performs it.
	if strings.Contains(bounded, "bump__unsync(") &&
		strings.Contains(bounded, "acquire(acc.mutex) {\n    acc.bump__unsync") {
		t.Errorf("bounded expanded across a cycle:\n%s", bounded)
	}
	if !strings.Contains(aggressive, "bump__unsync") {
		t.Errorf("aggressive did not expand:\n%s", aggressive)
	}
}

func TestPureExpr(t *testing.T) {
	pure := []ast.Expr{
		&ast.Ident{Name: "x"},
		&ast.ThisExpr{},
		&ast.FieldExpr{X: &ast.ThisExpr{}, Name: "f"},
		&ast.IndexExpr{X: &ast.Ident{Name: "a"}, Index: &ast.IntLit{Val: 3}},
		&ast.BinExpr{L: &ast.IntLit{Val: 1}, R: &ast.IntLit{Val: 2}},
		&ast.UnExpr{X: &ast.BoolLit{Val: true}},
	}
	for _, e := range pure {
		if !pureExpr(e) {
			t.Errorf("pureExpr(%s) = false", ast.ExprString(e))
		}
	}
	impure := []ast.Expr{
		&ast.CallExpr{Name: "g"},
		&ast.IndexExpr{X: &ast.Ident{Name: "a"}, Index: &ast.CallExpr{Name: "g"}},
		&ast.NewExpr{Type: &ast.ClassType{Name: "C"}},
	}
	for _, e := range impure {
		if pureExpr(e) {
			t.Errorf("pureExpr(%s) = true", ast.ExprString(e))
		}
	}
}

func TestVarsAndAssignsAny(t *testing.T) {
	e := &ast.FieldExpr{X: &ast.IndexExpr{
		X:     &ast.Ident{Name: "arr"},
		Index: &ast.Ident{Name: "i"},
	}, Name: "f"}
	vars := ast.Vars(e)
	if !vars["arr"] || !vars["i"] || len(vars) != 2 {
		t.Errorf("ast.Vars = %v", vars)
	}
	body := &ast.Block{Stmts: []ast.Stmt{
		&ast.AssignStmt{LHS: &ast.Ident{Name: "i"}, RHS: &ast.IntLit{Val: 0}},
	}}
	if !assignsAny(body, vars) {
		t.Error("assignsAny missed direct assignment")
	}
	if assignsAny(body, map[string]bool{"other": true}) {
		t.Error("assignsAny false positive")
	}
	loop := &ast.Block{Stmts: []ast.Stmt{
		&ast.ForStmt{Var: "i", Lo: &ast.IntLit{}, Hi: &ast.IntLit{}, Body: &ast.Block{}},
	}}
	if !assignsAny(loop, vars) {
		t.Error("assignsAny missed loop variable")
	}
}

func TestStripSyncBlocks(t *testing.T) {
	update := &ast.AssignStmt{
		LHS: &ast.FieldExpr{X: &ast.ThisExpr{}, Name: "v"},
		RHS: &ast.IntLit{Val: 1},
	}
	b := &ast.Block{Stmts: []ast.Stmt{
		&ast.SyncBlock{Lock: &ast.ThisExpr{}, Body: &ast.Block{Stmts: []ast.Stmt{update}}},
	}}
	stripSyncBlocks(b)
	if len(regions(b)) != 0 {
		t.Error("sync blocks survive stripping")
	}
	// The update must still be reachable (inside the spliced block).
	if !strings.Contains(printStmts(b), "this.v = 1") {
		t.Errorf("update lost: %s", printStmts(b))
	}
}

// regions lists the critical regions of a statement tree.
func regions(s ast.Stmt) []*ast.SyncBlock {
	var out []*ast.SyncBlock
	ast.Inspect(s, func(s ast.Stmt) bool {
		if sb, ok := s.(*ast.SyncBlock); ok {
			out = append(out, sb)
		}
		return true
	})
	return out
}

func printStmts(b *ast.Block) string {
	f := &ast.FuncDecl{Name: "t", Body: b}
	return ast.PrintFunc(f)
}

func TestApplyFlaggedSiteAccounting(t *testing.T) {
	prog, fi := applyFlagged(t, twoUpdates)
	if fi.NumSites <= 0 {
		t.Fatal("no sites created")
	}
	for _, p := range AllPolicies {
		vec := fi.Enabled[p]
		if len(vec) != fi.NumSites {
			t.Fatalf("%s: vector length %d, want %d", p, len(vec), fi.NumSites)
		}
		any := false
		for _, b := range vec {
			any = any || b
		}
		if !any {
			t.Errorf("%s enables no sites", p)
		}
	}
	// The policies must enable different site sets here (original keeps the
	// fine-grain sites; aggressive hoists).
	same := true
	for i := range fi.Enabled[Original] {
		if fi.Enabled[Original][i] != fi.Enabled[Aggressive][i] {
			same = false
		}
	}
	if same {
		t.Error("original and aggressive enable identical sites")
	}
	// All remaining regions carry sites.
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			for _, sb := range regions(m.Body) {
				if sb.Site <= 0 {
					t.Errorf("unconditional region survived in flagged mode: %s", ast.PrintFunc(m))
				}
			}
		}
	}
}

func TestApplyFlaggedNoUnsyncVariants(t *testing.T) {
	prog, _ := applyFlagged(t, twoUpdates)
	if strings.Contains(ast.Print(prog), UnsyncSuffix) {
		t.Error("flagged mode generated unsync variants")
	}
}

// TestCallInReturnBlocksExpansion: outer's return statement calls inner,
// which locks another object of the class, outside outer's region. outer
// is therefore not fully synchronized on its receiver, and a caller that
// took over its lock would hold it across that call: no policy may
// generate outer__unsync, and the flag-dispatch build may put no site
// around the call to outer.
func TestCallInReturnBlocksExpansion(t *testing.T) {
	src, err := os.ReadFile("../analysis/testdata/held_across_call.obl")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range AllPolicies {
		text := ast.Print(applyPolicy(t, string(src), policy))
		if strings.Contains(text, "outer"+UnsyncSuffix) {
			t.Errorf("%s took over outer's lock:\n%s", policy, text)
		}
	}
	prog, _ := applyFlagged(t, string(src))
	for _, fn := range prog.Funcs {
		if fn.Name != "compute" {
			continue
		}
		if rs := regions(fn.Body); len(rs) != 0 {
			t.Errorf("flagged build put site %d around the call to outer:\n%s", rs[0].Site, ast.PrintFunc(fn))
		}
	}
	// inner is fully synchronized; expanding calls to it stays legal.
	if text := ast.Print(applyPolicy(t, string(src), Aggressive)); !strings.Contains(text, "inner"+UnsyncSuffix) {
		t.Errorf("aggressive no longer classifies inner:\n%s", text)
	}
}
