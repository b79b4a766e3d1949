package analysis

import (
	"fmt"
	"strings"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/syncopt"
	"repro/internal/obl/token"
)

// CheckEquivalence verifies that a policy version of the program is
// sync-stripped-equivalent to the base program: removing every critical
// region, deleting the generated unsynchronized callee variants, and
// undoing the call renames must yield exactly the base computation. This is
// the translation-validation half that locks cannot express — the optimizer
// may move synchronization but must never change what the program computes.
func CheckEquivalence(policyProg, base *ast.Program, policy string) []Diagnostic {
	got := ast.Print(normalizeSyncStripped(policyProg))
	want := ast.Print(normalizeSyncStripped(base))
	if got == want {
		return nil
	}
	pos, detail := firstDifference(want, got)
	return []Diagnostic{{
		Pos: pos, Severity: Error, Code: CodeNotEquivalent, Policy: policy,
		Message: fmt.Sprintf(
			"policy version is not sync-stripped-equivalent to the original program: %s", detail),
	}}
}

// normalizeSyncStripped clones the program and erases every trace of the
// synchronization optimizer: regions are replaced by their bodies, the
// generated __unsync variants are dropped, and calls to them are renamed
// back to their synchronized originals.
func normalizeSyncStripped(p *ast.Program) *ast.Program {
	out := ast.CloneProgram(p)
	var funcs []*ast.FuncDecl
	for _, f := range out.Funcs {
		if !strings.HasSuffix(f.Name, syncopt.UnsyncSuffix) {
			funcs = append(funcs, f)
		}
	}
	out.Funcs = funcs
	for _, c := range out.Classes {
		var methods []*ast.FuncDecl
		for _, m := range c.Methods {
			if !strings.HasSuffix(m.Name, syncopt.UnsyncSuffix) {
				methods = append(methods, m)
			}
		}
		c.Methods = methods
	}
	for _, f := range out.Funcs {
		stripSync(f.Body)
	}
	for _, c := range out.Classes {
		for _, m := range c.Methods {
			stripSync(m.Body)
		}
	}
	return out
}

// stripSync flattens every SyncBlock into its surrounding statement list
// (matching what execution does when locks are ignored) and renames
// __unsync calls back to their originals.
func stripSync(b *ast.Block) {
	var out []ast.Stmt
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.SyncBlock:
			stripSync(s.Body)
			out = append(out, s.Body.Stmts...)
			continue
		case *ast.Block:
			// The optimizer strips a region by replacing it with its body
			// block, so a lifted loop body contains bare nested blocks where
			// the base has flat statements; flatten them the same way on
			// both sides.
			stripSync(s)
			out = append(out, s.Stmts...)
			continue
		case *ast.IfStmt:
			stripSync(s.Then)
			if s.Else != nil {
				stripSync(s.Else)
			}
		case *ast.WhileStmt:
			stripSync(s.Body)
		case *ast.ForStmt:
			stripSync(s.Body)
		}
		renameStmtCalls(s)
		out = append(out, s)
	}
	b.Stmts = out
}

// renameStmtCalls undoes the call renames in the expressions s itself
// evaluates (stripSync handles the nested statements).
func renameStmtCalls(s ast.Stmt) {
	for _, e := range ast.Operands(s) {
		callgraph.WalkExprCalls(e, func(call *ast.CallExpr) {
			call.Name = strings.TrimSuffix(call.Name, syncopt.UnsyncSuffix)
		})
	}
}

// firstDifference locates the first differing line of the two canonical
// renders, for the diagnostic message.
func firstDifference(want, got string) (token.Pos, string) {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return token.Pos{}, fmt.Sprintf(
				"first divergence at canonical line %d: want %q, got %q",
				i+1, strings.TrimSpace(w), strings.TrimSpace(g))
		}
	}
	return token.Pos{}, "programs render identically but differ structurally"
}
