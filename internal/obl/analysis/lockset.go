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

// lockChecker walks the parallel sections of one policy view once, solving
// the must-lockset dataflow of each body in each calling context, and
// reads two kinds of finding off the solved facts: lock coverage
// (OBL-E100–E102) as it goes, and lock-order edges for the cycle check
// (OBL-E104, lockorder.go) at the end.
type lockChecker struct {
	info   *sema.Info
	cg     *callgraph.Graph
	policy string
	// active reports whether a region acquires its lock under this view
	// (always true for per-policy clones; flag-vector lookup for the
	// flag-dispatch program).
	active func(*ast.SyncBlock) bool
	// Per parallel loop: its section, the "Class.field" keys updated
	// anywhere in its extent (reads of these conflict with the writes),
	// and the (callee, entry) contexts already walked.
	section string
	written map[string]bool
	memo    map[string]bool
	edges   map[[2]string]orderEdge // first example per (from, to) class pair
	diags   []Diagnostic
}

// checkLocks validates the locking of every parallel section of one policy
// view: each shared field write (and each read conflicting with a section
// write) must execute while the object's lock — under the view's active
// regions — is held, no path may leave a function still holding a lock it
// acquired, and the view's acquires must admit one global lock order.
// policy labels the diagnostics; active selects the regions that really
// acquire under this view (nil means all of them).
func checkLocks(prog *ast.Program, info *sema.Info, policy string, active func(*ast.SyncBlock) bool) []Diagnostic {
	if active == nil {
		active = func(*ast.SyncBlock) bool { return true }
	}
	c := &lockChecker{
		info: info, cg: callgraph.Build(info), policy: policy, active: active,
		edges: map[[2]string]orderEdge{},
	}
	forEachParallelLoop(prog, func(loop *ast.ForStmt) {
		c.section, c.memo = loop.Section, map[string]bool{}
		c.written = c.extentWrites(loop)
		c.checkBody(loop.Body, nil, loop.Var)
	})
	return append(c.diags, c.reportCycles()...)
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
func (c *lockChecker) extentWrites(loop *ast.ForStmt) map[string]bool {
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
func (c *lockChecker) fieldKey(e *ast.FieldExpr) string {
	if cl, ok := c.info.ExprType[e.X].(sema.Class); ok {
		return cl.Info.Name + "." + e.Name
	}
	return ""
}

// checkBody walks one body (the section loop body, or a callee body in a
// calling context). entry lists the locks held on entry, named in the
// body's own terms; loopVar, when non-empty, is the induction variable of
// the parallel loop (array element writes indexed by it are per-iteration
// disjoint).
func (c *lockChecker) checkBody(body *ast.Block, entry []entryLock, loopVar string) {
	g := BuildCFG(body)
	fresh := freshLocals(body)

	ent := lockFact{held: map[string]bool{}, mVars: map[string]map[string]bool{}}
	classByCanon := map[string]string{}
	for _, el := range entry {
		ent.held[el.name] = true
		ent.mVars[el.name] = map[string]bool{el.name: true}
		classByCanon[el.name] = el.class
	}
	// Held canons resolve to their class through the entry classes or, for
	// locks this body acquires, the type of the lock expression.
	for _, n := range g.Nodes {
		if n.Kind == NodeAcquire {
			canon := ast.ExprString(n.Sync.Lock)
			if _, ok := classByCanon[canon]; !ok {
				classByCanon[canon] = c.classOf(n.Sync.Lock)
			}
		}
	}
	in := solve(g, ent, c.active)

	for i, n := range g.Nodes {
		fact := in[i]
		if fact.univ {
			continue // unreachable; the lint checker reports it
		}
		if n.Kind == NodeAcquire && c.active(n.Sync) {
			c.orderAcquire(n.Sync, fact, classByCanon)
		}
		switch s := n.Stmt.(type) {
		case *ast.ReturnStmt:
			// Only locks acquired in this body leak on return: locks
			// inherited from the calling context stay held across the call
			// and release in the caller.
			var leaked []string
			for _, k := range heldNames(fact) {
				if !ent.held[k] {
					leaked = append(leaked, k)
				}
			}
			if len(leaked) > 0 {
				c.report(s.P, CodeLockLeak, fmt.Sprintf(
					"return while holding lock on %s: the critical region never releases on this path",
					strings.Join(leaked, ", ")))
			}
		case *ast.AssignStmt:
			c.checkWrite(s, fact, fresh, loopVar)
		}
		for _, e := range nodeExprs(n) {
			c.checkReads(e, writeTarget(n), fact, fresh)
			callgraph.WalkExprCalls(e, func(call *ast.CallExpr) {
				c.enterCall(call, fact, classByCanon)
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
func (c *lockChecker) checkWrite(as *ast.AssignStmt, fact lockFact, fresh map[string]bool, loopVar string) {
	switch lhs := as.LHS.(type) {
	case *ast.FieldExpr:
		canon := ast.ExprString(lhs.X)
		if fresh[canon] || fact.held[canon] {
			return
		}
		c.report(as.P, CodeUncoveredWrite, fmt.Sprintf(
			"write to %s (field %s) in parallel section %s is not covered by a lock on %s%s",
			ast.ExprString(lhs), c.fieldKey(lhs), c.section, canon, heldSuffix(fact)))
	case *ast.IndexExpr:
		canon := ast.ExprString(lhs.X)
		if fresh[canon] {
			return
		}
		// a[i] = e with i the parallel induction variable touches a distinct
		// element per iteration; any other shared element write is a race no
		// lock can cover (arrays carry no locks).
		if loopVar != "" && ast.Vars(lhs.Index)[loopVar] {
			return
		}
		c.report(as.P, CodeUncoveredWrite, fmt.Sprintf(
			"unsynchronized array element write to %s in parallel section %s (element index is not the section's induction variable)",
			ast.ExprString(lhs), c.section))
	}
}

// checkReads reports reads of section-written fields performed without the
// object's lock. skip is the statement's own write target.
func (c *lockChecker) checkReads(e ast.Expr, skip *ast.FieldExpr, fact lockFact, fresh map[string]bool) {
	ast.InspectExpr(e, func(e ast.Expr) bool {
		fe, ok := e.(*ast.FieldExpr)
		if !ok || fe == skip {
			return true
		}
		key := c.fieldKey(fe)
		canon := ast.ExprString(fe.X)
		if key == "" || !c.written[key] || fresh[canon] || fact.held[canon] {
			return true
		}
		c.report(fe.P, CodeUncoveredRead, fmt.Sprintf(
			"read of %s conflicts with writes of field %s in parallel section %s and is not covered by a lock on %s%s",
			ast.ExprString(fe), key, c.section, canon, heldSuffix(fact)))
		return true
	})
}

// enterCall walks a callee in the calling context of one call: each held
// lock whose canon names the receiver or an argument enters the callee
// under the corresponding formal ("this" or the parameter name), and the
// rest stay held under a callerHeld name, so an acquire in the callee is
// still ordered after them. Each entry lock keeps its class. Walks are
// memoized per (callee, entry) within a section; recursion terminates
// through the memo.
func (c *lockChecker) enterCall(call *ast.CallExpr, fact lockFact, classByCanon map[string]string) {
	target, ok := c.info.CallTarget[call]
	if !ok {
		return // extern or builtin: no body, no synchronization
	}
	var entry []entryLock
	passed := map[string]bool{}
	pass := func(e ast.Expr, formal string) {
		if canon := ast.ExprString(e); fact.held[canon] {
			entry = append(entry, entryLock{name: formal, class: classByCanon[canon]})
			passed[canon] = true
		}
	}
	if call.Recv != nil {
		pass(call.Recv, "this")
	}
	for i, a := range call.Args {
		if i < len(target.Decl.Params) {
			pass(a, target.Decl.Params[i].Name)
		}
	}
	for canon := range fact.held {
		if !passed[canon] {
			name := callerHeld + strings.TrimPrefix(canon, callerHeld)
			entry = append(entry, entryLock{name: name, class: classByCanon[canon]})
		}
	}
	sort.Slice(entry, func(i, j int) bool {
		return entry[i].name < entry[j].name || entry[i].name == entry[j].name && entry[i].class < entry[j].class
	})
	parts := make([]string, len(entry))
	for i, el := range entry {
		parts[i] = el.name + "=" + el.class
	}
	key := target.FullName() + "\x00" + strings.Join(parts, ",")
	if c.memo[key] {
		return
	}
	c.memo[key] = true
	c.checkBody(target.Decl.Body, entry, "")
}

func (c *lockChecker) report(pos token.Pos, code, msg string) {
	c.diags = append(c.diags, Diagnostic{
		Pos: pos, Severity: Error, Code: code, Message: msg, Policy: c.policy,
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

// heldSuffix lists the held locks a coverage message can point to: those
// the body can name, not the ones its callers hold.
func heldSuffix(f lockFact) string {
	var names []string
	for _, k := range heldNames(f) {
		if !strings.HasPrefix(k, callerHeld) {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		return " (no locks held)"
	}
	return fmt.Sprintf(" (held: %s)", strings.Join(names, ", "))
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

	// use visits an expression: any bare identifier occurrence in value
	// position escapes and disqualifies its candidate, receivers and
	// arguments included (the callee may store them); identifiers that are
	// only the base of a field or element access do not.
	var use func(ast.Expr) bool
	use = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			delete(candidate, e.Name)
		case *ast.FieldExpr:
			_, base := e.X.(*ast.Ident)
			return !base
		case *ast.IndexExpr:
			if _, base := e.X.(*ast.Ident); base {
				ast.InspectExpr(e.Index, use)
				return false
			}
		}
		return true
	}
	ast.Inspect(body, func(s ast.Stmt) bool {
		if _, ok := s.(*ast.SyncBlock); ok {
			return true // the lock expression is a sanctioned use of the object
		}
		// Assigning to a candidate uses it bare, which breaks
		// single-assignment; its own initializer uses only the array length.
		for _, e := range ast.Operands(s) {
			ast.InspectExpr(e, use)
		}
		return true
	})
	return candidate
}
