package analysis

import (
	"fmt"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/sema"
)

// Lint runs the policy-independent checkers over the checked base program:
// dead fields (never referenced), write-only fields, functions unreachable
// from main, and unreachable statements.
func Lint(info *sema.Info, cg *callgraph.Graph) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, lintFields(info)...)
	diags = append(diags, lintDeadFuncs(info, cg)...)
	diags = append(diags, lintUnreachable(info)...)
	return diags
}

// lintFields reports fields that are never referenced (W200) and fields
// whose value is written but never read (I301).
func lintFields(info *sema.Info) []Diagnostic {
	type fieldUse struct{ read, written bool }
	use := map[string]*fieldUse{} // "Class.field"
	record := func(e *ast.FieldExpr, isWrite bool) {
		cl, ok := info.ExprType[e.X].(sema.Class)
		if !ok {
			return
		}
		key := cl.Info.Name + "." + e.Name
		u := use[key]
		if u == nil {
			u = &fieldUse{}
			use[key] = u
		}
		if isWrite {
			u.written = true
		} else {
			u.read = true
		}
	}
	read := func(e ast.Expr) bool {
		if fe, ok := e.(*ast.FieldExpr); ok {
			record(fe, false)
		}
		return true
	}
	for _, fi := range info.AllFuncs() {
		ast.Inspect(fi.Decl.Body, func(s ast.Stmt) bool {
			exprs := ast.Operands(s)
			if as, ok := s.(*ast.AssignStmt); ok {
				if lhs, ok := as.LHS.(*ast.FieldExpr); ok {
					record(lhs, true)
					exprs = []ast.Expr{lhs.X, as.RHS}
				}
			}
			for _, e := range exprs {
				ast.InspectExpr(e, read)
			}
			return true
		})
	}

	var diags []Diagnostic
	for _, cd := range info.Program.Classes {
		for _, fd := range cd.Fields {
			u := use[cd.Name+"."+fd.Name]
			switch {
			case u == nil:
				diags = append(diags, Diagnostic{
					Pos: fd.P, Severity: Warning, Code: CodeDeadField,
					Message: fmt.Sprintf("field %s.%s is never referenced", cd.Name, fd.Name),
				})
			case u.written && !u.read:
				diags = append(diags, Diagnostic{
					Pos: fd.P, Severity: Info, Code: CodeWriteOnlyField,
					Message: fmt.Sprintf("field %s.%s is written but its value is never read", cd.Name, fd.Name),
				})
			}
		}
	}
	return diags
}

// lintDeadFuncs reports functions and methods unreachable from main (W201).
func lintDeadFuncs(info *sema.Info, cg *callgraph.Graph) []Diagnostic {
	if info.Funcs["main"] == nil {
		return nil // sema or the driver reports the missing entry point
	}
	live := map[string]bool{}
	for _, name := range cg.Reachable("main") {
		live[name] = true
	}
	var diags []Diagnostic
	for _, fi := range info.AllFuncs() {
		full := fi.FullName()
		if live[full] || full == "main" {
			continue
		}
		kind := "function"
		if fi.Class != nil {
			kind = "method"
		}
		diags = append(diags, Diagnostic{
			Pos: fi.Decl.P, Severity: Warning, Code: CodeDeadFunc,
			Message: fmt.Sprintf("%s %s is unreachable from main", kind, full),
		})
	}
	return diags
}

// lintUnreachable reports statements that can never execute (W202), using
// each function's control-flow graph. Only the first statement of each
// unreachable run is reported, to avoid cascades.
func lintUnreachable(info *sema.Info) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range info.AllFuncs() {
		g := BuildCFG(fi.Decl.Body)
		reach := g.Reachable()
		unreachable := func(s ast.Stmt) bool {
			idx, ok := g.StmtNode[s]
			return ok && !reach[idx]
		}
		var walk func(b *ast.Block)
		walk = func(b *ast.Block) {
			reported := false
			for _, s := range b.Stmts {
				if unreachable(s) {
					if !reported {
						diags = append(diags, Diagnostic{
							Pos: s.Pos(), Severity: Warning, Code: CodeUnreachable,
							Message: fmt.Sprintf("unreachable statement in %s", fi.FullName()),
						})
						reported = true
					}
					continue
				}
				reported = false
				switch s := s.(type) {
				case *ast.Block:
					walk(s)
				case *ast.IfStmt:
					walk(s.Then)
					if s.Else != nil {
						walk(s.Else)
					}
				case *ast.WhileStmt:
					walk(s.Body)
				case *ast.ForStmt:
					walk(s.Body)
				case *ast.SyncBlock:
					walk(s.Body)
				}
			}
		}
		walk(fi.Decl.Body)
	}
	return diags
}

// ReportOpportunities reports critical regions in parallel sections whose
// lock object is provably thread-local (I300): the region's synchronization
// can be eliminated outright. It runs on the Original-policy program, whose
// regions are exactly the default placement, and only inside loops the
// commutativity analysis parallelized — the cross-check the paper's
// synergy argument asks for.
func ReportOpportunities(prog *ast.Program) []Diagnostic {
	var diags []Diagnostic
	forEachParallelLoop(prog, func(loop *ast.ForStmt) {
		fresh := freshLocals(loop.Body)
		ast.Inspect(loop.Body, func(s ast.Stmt) bool {
			if sb, ok := s.(*ast.SyncBlock); ok && fresh[ast.ExprString(sb.Lock)] {
				diags = append(diags, Diagnostic{
					Pos: sb.P, Severity: Info, Code: CodeThreadLocalSync,
					Message: fmt.Sprintf(
						"critical region on %s in parallel section %s locks a thread-local object; the synchronization can be eliminated",
						ast.ExprString(sb.Lock), loop.Section),
				})
			}
			return true
		})
	})
	return diags
}
