package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/sema"
	"repro/internal/obl/token"
)

// lockFact is the must-lockset abstract value: the set of locks held on
// every path to a program point. Locks are identified by the canonical
// source text of their object expression (ast.ExprString); each entry also
// remembers the local variables its expression mentions, so assignments to
// those variables kill the entry.
type lockFact struct {
	univ  bool // unreachable / uninitialized: holds every lock
	held  map[string]bool
	mVars map[string]map[string]bool // canon -> mentioned variable names
}

func (f lockFact) clone() lockFact {
	out := lockFact{univ: f.univ, held: map[string]bool{}, mVars: map[string]map[string]bool{}}
	for k := range f.held {
		out.held[k] = true
		out.mVars[k] = f.mVars[k]
	}
	return out
}

type locksLattice struct{}

func (locksLattice) Top() lockFact { return lockFact{univ: true} }

func (locksLattice) Meet(a, b lockFact) lockFact {
	if a.univ {
		return b
	}
	if b.univ {
		return a
	}
	out := lockFact{held: map[string]bool{}, mVars: map[string]map[string]bool{}}
	for k := range a.held {
		if b.held[k] {
			out.held[k] = true
			out.mVars[k] = a.mVars[k]
		}
	}
	return out
}

func (locksLattice) Equal(a, b lockFact) bool {
	if a.univ != b.univ {
		return false
	}
	if len(a.held) != len(b.held) {
		return false
	}
	for k := range a.held {
		if !b.held[k] {
			return false
		}
	}
	return true
}

// kill removes entries whose expression mentions the assigned variable.
func (f *lockFact) kill(name string) {
	for k, vars := range f.mVars {
		if vars[name] {
			delete(f.held, k)
			delete(f.mVars, k)
		}
	}
}

func exprVars(e ast.Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			out[e.Name] = true
		case *ast.ThisExpr:
			out["this"] = true
		case *ast.FieldExpr:
			walk(e.X)
		case *ast.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *ast.BinExpr:
			walk(e.L)
			walk(e.R)
		case *ast.UnExpr:
			walk(e.X)
		}
	}
	walk(e)
	return out
}

// coverageChecker validates lock coverage for one parallel section of one
// policy view of a program.
type coverageChecker struct {
	info    *sema.Info
	cg      *callgraph.Graph
	policy  string
	section string
	// active reports whether a region acquires its lock under this view
	// (always true for per-policy clones; flag-vector lookup for the
	// flag-dispatch program).
	active func(*ast.SyncBlock) bool
	// written is the set of "Class.field" keys updated anywhere in the
	// section's extent; reads of these fields conflict with the writes.
	written map[string]bool
	memo    map[string]bool
	diags   []Diagnostic
}

// CheckCoverage runs lock-coverage translation validation over every
// parallel section of a policy program: each shared field write (and each
// read conflicting with a section write) must execute while the object's
// lock — under the view's active regions — is held, and no path may leave a
// function while still holding a lock. policy labels the diagnostics;
// active selects the regions that really acquire under this view (nil
// means all of them).
func CheckCoverage(prog *ast.Program, info *sema.Info, policy string, active func(*ast.SyncBlock) bool) []Diagnostic {
	if active == nil {
		active = func(*ast.SyncBlock) bool { return true }
	}
	cg := callgraph.Build(info)
	var diags []Diagnostic
	forEachParallelLoop(prog, func(loop *ast.ForStmt) {
		c := &coverageChecker{
			info: info, cg: cg, policy: policy, section: loop.Section,
			active: active, memo: map[string]bool{},
		}
		c.written = c.extentWrites(loop)
		c.checkBody(loop.Body, nil, loop.Var)
		diags = append(diags, c.diags...)
	})
	return diags
}

// forEachParallelLoop visits every parallel loop of the program.
func forEachParallelLoop(prog *ast.Program, fn func(*ast.ForStmt)) {
	visit := func(s ast.Stmt) bool {
		loop, ok := s.(*ast.ForStmt)
		if ok && loop.Parallel {
			fn(loop)
			return false
		}
		return true
	}
	for _, fd := range prog.Funcs {
		ast.Inspect(fd.Body, visit)
	}
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			ast.Inspect(m.Body, visit)
		}
	}
}

// extentWrites collects the "Class.field" keys written anywhere in the
// section's extent: the loop body plus every function reachable from its
// calls.
func (c *coverageChecker) extentWrites(loop *ast.ForStmt) map[string]bool {
	out := map[string]bool{}
	collect := func(s ast.Stmt) {
		ast.Inspect(s, func(s ast.Stmt) bool {
			if as, ok := s.(*ast.AssignStmt); ok {
				if lhs, ok := as.LHS.(*ast.FieldExpr); ok {
					if key := c.fieldKey(lhs); key != "" {
						out[key] = true
					}
				}
			}
			return true
		})
	}
	collect(loop.Body)
	var roots []string
	callgraph.WalkCalls(loop.Body, func(call *ast.CallExpr) {
		if t, ok := c.info.CallTarget[call]; ok {
			roots = append(roots, t.FullName())
		}
	})
	for _, name := range c.cg.Reachable(roots...) {
		if fi := c.info.FuncByFullName(name); fi != nil {
			collect(fi.Decl.Body)
		}
	}
	return out
}

// fieldKey returns "Class.field" for a field expression, or "" when the
// base type is unknown.
func (c *coverageChecker) fieldKey(e *ast.FieldExpr) string {
	if cl, ok := c.info.ExprType[e.X].(sema.Class); ok {
		return cl.Info.Name + "." + e.Name
	}
	return ""
}

// checkBody analyzes one body (the section loop body, or a callee body in
// a calling context). entry lists the lock canons held on entry, already
// expressed in the body's own terms; loopVar, when non-empty, is the
// induction variable of the parallel loop (array element writes indexed by
// it are per-iteration disjoint).
func (c *coverageChecker) checkBody(body *ast.Block, entry []string, loopVar string) {
	g := BuildCFG(body)
	fresh := freshLocals(body)

	entryHeld := map[string]bool{}
	for _, name := range entry {
		entryHeld[name] = true
	}
	in := solveMustLocksets(g, entry, c.active)

	// Reporting pass over the solved facts.
	for i, n := range g.Nodes {
		fact := in[i]
		if fact.univ {
			continue // unreachable; the lint checker reports it
		}
		if n.Kind == NodeStmt {
			if ret, ok := n.Stmt.(*ast.ReturnStmt); ok {
				// Only locks acquired in this body leak on return: locks
				// inherited from the calling context stay held across the
				// call and release in the caller.
				var leaked []string
				for k := range fact.held {
					if !entryHeld[k] {
						leaked = append(leaked, k)
					}
				}
				if len(leaked) > 0 {
					sort.Strings(leaked)
					c.report(ret.P, Error, CodeLockLeak, fmt.Sprintf(
						"return while holding lock on %s: the critical region never releases on this path",
						strings.Join(leaked, ", ")))
				}
			}
			if as, ok := n.Stmt.(*ast.AssignStmt); ok {
				c.checkWrite(as, fact, fresh, loopVar)
			}
		}
		for _, e := range nodeExprs(n) {
			c.checkReads(e, writeTarget(n), fact, fresh)
			callgraph.WalkExprCalls(e, func(call *ast.CallExpr) {
				c.enterCall(call, fact)
			})
		}
	}
}

// writeTarget returns the written field expression of an assignment node,
// so the read checker does not double-report it.
func writeTarget(n *Node) *ast.FieldExpr {
	if as, ok := n.Stmt.(*ast.AssignStmt); ok {
		if lhs, ok := as.LHS.(*ast.FieldExpr); ok {
			return lhs
		}
	}
	return nil
}

// nodeExprs lists the expressions evaluated at a node. Acquire and release
// nodes carry their region as Stmt and evaluate nothing themselves.
func nodeExprs(n *Node) []ast.Expr {
	if n.Kind == NodeAcquire || n.Kind == NodeRelease {
		return nil
	}
	return ast.Operands(n.Stmt)
}

// checkWrite validates one assignment's target under the held lockset.
func (c *coverageChecker) checkWrite(as *ast.AssignStmt, fact lockFact, fresh map[string]bool, loopVar string) {
	switch lhs := as.LHS.(type) {
	case *ast.FieldExpr:
		canon := ast.ExprString(lhs.X)
		if fresh[canon] || fact.held[canon] {
			return
		}
		key := c.fieldKey(lhs)
		c.report(as.P, Error, CodeUncoveredWrite, fmt.Sprintf(
			"write to %s (field %s) in parallel section %s is not covered by a lock on %s%s",
			ast.ExprString(lhs), key, c.section, canon, heldSuffix(fact)))
	case *ast.IndexExpr:
		canon := ast.ExprString(lhs.X)
		if fresh[canon] {
			return
		}
		// a[i] = e with i the parallel induction variable touches a distinct
		// element per iteration; any other shared element write is a race no
		// lock can cover (arrays carry no locks).
		if loopVar != "" && exprVars(lhs.Index)[loopVar] {
			return
		}
		c.report(as.P, Error, CodeUncoveredWrite, fmt.Sprintf(
			"unsynchronized array element write to %s in parallel section %s (element index is not the section's induction variable)",
			ast.ExprString(lhs), c.section))
	}
}

// checkReads reports reads of section-written fields performed without the
// object's lock. skip is the statement's own write target.
func (c *coverageChecker) checkReads(e ast.Expr, skip *ast.FieldExpr, fact lockFact, fresh map[string]bool) {
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.FieldExpr:
			walk(e.X)
			if e == skip {
				return
			}
			key := c.fieldKey(e)
			if key == "" || !c.written[key] {
				return
			}
			canon := ast.ExprString(e.X)
			if fresh[canon] || fact.held[canon] {
				return
			}
			c.report(e.P, Error, CodeUncoveredRead, fmt.Sprintf(
				"read of %s conflicts with writes of field %s in parallel section %s and is not covered by a lock on %s%s",
				ast.ExprString(e), key, c.section, canon, heldSuffix(fact)))
		case *ast.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *ast.CallExpr:
			if e.Recv != nil {
				walk(e.Recv)
			}
			for _, a := range e.Args {
				walk(a)
			}
		case *ast.NewExpr:
			if e.Count != nil {
				walk(e.Count)
			}
		case *ast.BinExpr:
			walk(e.L)
			walk(e.R)
		case *ast.UnExpr:
			walk(e.X)
		}
	}
	walk(e)
}

// enterCall analyzes a callee in the context of the caller's held locks:
// each held lock whose canon names the receiver or an argument enters the
// callee's lockset under the corresponding formal ("this" or the parameter
// name). Analyses are memoized per (callee, entry lockset); recursion
// terminates through the memo.
func (c *coverageChecker) enterCall(call *ast.CallExpr, fact lockFact) {
	target, ok := c.info.CallTarget[call]
	if !ok {
		return // extern or builtin: no body, no synchronization
	}
	var entry []string
	if call.Recv != nil && fact.held[ast.ExprString(call.Recv)] {
		entry = append(entry, "this")
	}
	for i, a := range call.Args {
		if i < len(target.Decl.Params) && fact.held[ast.ExprString(a)] {
			entry = append(entry, target.Decl.Params[i].Name)
		}
	}
	sort.Strings(entry)
	key := target.FullName() + "\x00" + strings.Join(entry, ",")
	if c.memo[key] {
		return
	}
	c.memo[key] = true
	c.checkBody(target.Decl.Body, entry, "")
}

func (c *coverageChecker) report(pos token.Pos, sev Severity, code, msg string) {
	c.diags = append(c.diags, Diagnostic{
		Pos: pos, Severity: sev, Code: code, Message: msg, Policy: c.policy,
	})
}

// heldNames lists the held locks, sorted.
func heldNames(f lockFact) []string {
	names := make([]string, 0, len(f.held))
	for k := range f.held {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func heldSuffix(f lockFact) string {
	if len(f.held) == 0 {
		return " (no locks held)"
	}
	return fmt.Sprintf(" (held: %s)", strings.Join(heldNames(f), ", "))
}

// freshLocals finds strictly thread-local variables of a body: declared
// with a new-expression initializer and used only as the base of field or
// element accesses (or as a region's lock). Objects and arrays that never
// escape this way are per-execution private, so accesses through them need
// no lock.
func freshLocals(body *ast.Block) map[string]bool {
	candidate := map[string]bool{}
	ast.Inspect(body, func(s ast.Stmt) bool {
		if let, ok := s.(*ast.LetStmt); ok {
			if _, ok := let.Init.(*ast.NewExpr); ok {
				candidate[let.Name] = true
			}
		}
		return true
	})
	if len(candidate) == 0 {
		return candidate
	}

	// use walks an expression: any bare identifier occurrence in value
	// position escapes and disqualifies its candidate; identifiers that are
	// only the base of a field or element access do not.
	var use func(ast.Expr)
	use = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			delete(candidate, e.Name)
		case *ast.FieldExpr:
			if _, isIdent := e.X.(*ast.Ident); !isIdent {
				use(e.X)
			}
		case *ast.IndexExpr:
			if _, isIdent := e.X.(*ast.Ident); !isIdent {
				use(e.X)
			}
			use(e.Index)
		case *ast.CallExpr:
			// Receivers and arguments escape: the callee may store them.
			if e.Recv != nil {
				use(e.Recv)
			}
			for _, a := range e.Args {
				use(a)
			}
		case *ast.NewExpr:
			if e.Count != nil {
				use(e.Count)
			}
		case *ast.BinExpr:
			use(e.L)
			use(e.R)
		case *ast.UnExpr:
			use(e.X)
		}
	}
	ast.Inspect(body, func(s ast.Stmt) bool {
		if _, ok := s.(*ast.SyncBlock); ok {
			return true // the lock expression is a sanctioned use of the object
		}
		// Assigning to a candidate uses it bare, which breaks
		// single-assignment; its own initializer uses only the array length.
		for _, e := range ast.Operands(s) {
			use(e)
		}
		return true
	})
	return candidate
}
