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

// This file implements the static deadlock analysis (OBL-E104): a
// per-version lock-order graph built from the same must-lockset dataflow
// the coverage checker runs, with cycle detection over lock classes.
//
// The coverage checkers (E100–E102) validate that every shared access
// holds the right lock; they say nothing about the *order* in which a
// version acquires multiple locks. The coarsening and lifting transforms
// of the generated policy space reorder and enlarge critical regions, so
// two generated versions can each be coverage-correct yet acquire a pair
// of locks in opposite orders — a statically latent deadlock that only a
// particular interleaving exposes. CheckLockOrder re-derives the ordering
// obligation: whenever an acquire executes while other locks are held, the
// graph gains an edge from each held lock's class to the acquired lock's
// class; any cycle — including a self-edge, two objects of one class
// acquired in inconsistent order on one code path — means no global
// acquisition order exists, and two processors interleaving the edge's
// acquire sites can block each other forever.
//
// Locks are abstracted by the class of the locked object (the standard
// lock-type abstraction): distinct instances of one class share a node,
// because a parallel section's iterations run the same code against
// different instances, so a nested acquire of two same-class objects is
// ordered only if some instance-level discipline (never expressible in
// OBL) prevents the reverse pair.

// orderEdge is one lock-order fact: an acquire of a lock of class To at
// Pos while a lock of class From was held. The canonical expression
// strings of both locks make the diagnostic concrete.
type orderEdge struct {
	From, To  string
	Pos       token.Pos
	HeldCanon string
	AcqCanon  string
	Section   string
}

// orderChecker accumulates lock-order edges for one policy view.
type orderChecker struct {
	info    *sema.Info
	policy  string
	section string
	active  func(*ast.SyncBlock) bool
	memo    map[string]bool
	edges   map[[2]string]orderEdge // first example per (from, to) class pair
}

// entryLock is a lock held on entry to a callee body, renamed to the
// callee's formal, with the class it had at the call site.
type entryLock struct {
	name  string
	class string
}

// CheckLockOrder runs the static deadlock analysis over every parallel
// section of one policy view and reports each lock-order cycle as an
// OBL-E104 diagnostic. active selects the regions that really acquire
// under this view (nil means all of them), exactly as in CheckCoverage.
func CheckLockOrder(prog *ast.Program, info *sema.Info, policy string, active func(*ast.SyncBlock) bool) []Diagnostic {
	if active == nil {
		active = func(*ast.SyncBlock) bool { return true }
	}
	c := &orderChecker{
		info:   info,
		policy: policy,
		active: active,
		memo:   map[string]bool{},
		edges:  map[[2]string]orderEdge{},
	}
	forEachParallelLoop(prog, func(loop *ast.ForStmt) {
		c.section = loop.Section
		c.collectBody(loop.Body, nil)
	})
	return c.reportCycles()
}

// classOf returns the class name of a lock expression, or "" when the
// checked program gives it no class type (malformed mutants).
func (c *orderChecker) classOf(e ast.Expr) string {
	if cl, ok := c.info.ExprType[e].(sema.Class); ok {
		return cl.Info.Name
	}
	return ""
}

// collectBody solves the must-lockset dataflow over one body and records
// an order edge at every acquire that executes under held locks; calls are
// entered with the held locks renamed to the callee's formals, memoized
// per (callee, entry) like the coverage checker.
func (c *orderChecker) collectBody(body *ast.Block, entry []entryLock) {
	g := BuildCFG(body)

	entryNames := make([]string, 0, len(entry))
	classByCanon := map[string]string{}
	for _, el := range entry {
		entryNames = append(entryNames, el.name)
		classByCanon[el.name] = el.class
	}
	in := solveMustLocksets(g, entryNames, c.active)

	// Every acquire node names its lock's class; held canons resolve
	// through this map (acquires seen in this body) or the entry classes.
	for _, n := range g.Nodes {
		if n.Kind == NodeAcquire {
			canon := ast.ExprString(n.Sync.Lock)
			if _, ok := classByCanon[canon]; !ok {
				classByCanon[canon] = c.classOf(n.Sync.Lock)
			}
		}
	}

	for i, n := range g.Nodes {
		fact := in[i]
		if fact.univ {
			continue // unreachable
		}
		if n.Kind == NodeAcquire && c.active(n.Sync) {
			acqCanon := ast.ExprString(n.Sync.Lock)
			acqClass := c.classOf(n.Sync.Lock)
			if acqClass != "" {
				for _, held := range heldNames(fact) {
					if held == acqCanon {
						continue // reacquire of the same object, not an ordering
					}
					heldClass := classByCanon[held]
					if heldClass == "" {
						continue
					}
					c.addEdge(orderEdge{
						From: heldClass, To: acqClass,
						Pos:       n.Sync.P,
						HeldCanon: held, AcqCanon: acqCanon,
						Section: c.section,
					})
				}
			}
		}
		for _, e := range nodeExprs(n) {
			callgraph.WalkExprCalls(e, func(call *ast.CallExpr) {
				c.enterCall(call, fact, classByCanon)
			})
		}
	}
}

// callerHeld prefixes the name of a lock that stays held across a call
// that does not pass it: no OBL expression renders with an apostrophe, so
// nothing in the callee can name, release or kill it.
const callerHeld = "caller's "

// enterCall descends into a callee carrying every held lock: those that
// name the receiver or an argument are renamed to the callee's formals,
// the rest stay held under a callerHeld name, so an acquire in the callee
// is still ordered after them.
func (c *orderChecker) enterCall(call *ast.CallExpr, fact lockFact, classByCanon map[string]string) {
	target, ok := c.info.CallTarget[call]
	if !ok {
		return // extern or builtin
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
	key := target.FullName() + "\x00" + strings.Join(parts, ",") + "\x00" + c.section
	if c.memo[key] {
		return
	}
	c.memo[key] = true
	c.collectBody(target.Decl.Body, entry)
}

func (c *orderChecker) addEdge(e orderEdge) {
	key := [2]string{e.From, e.To}
	if _, ok := c.edges[key]; !ok {
		c.edges[key] = e
	}
}

// reportCycles finds the strongly connected components of the class graph
// and emits one OBL-E104 diagnostic per deadlock-capable component: more
// than one class, or a single class with a self-edge.
func (c *orderChecker) reportCycles() []Diagnostic {
	if len(c.edges) == 0 {
		return nil
	}
	succ := map[string][]string{}
	nodes := map[string]bool{}
	for key := range c.edges {
		succ[key[0]] = append(succ[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sort.Strings(succ[n])
	}

	comp := callgraph.SCCs(names, succ)

	var diags []Diagnostic
	for _, scc := range comp {
		if len(scc) == 1 {
			if _, self := c.edges[[2]string{scc[0], scc[0]}]; !self {
				continue
			}
		}
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		// The component's edges, in deterministic order, each with its
		// example acquire site.
		var keys [][2]string
		for key := range c.edges {
			if in[key[0]] && in[key[1]] {
				keys = append(keys, key)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		parts := make([]string, len(keys))
		pos := c.edges[keys[0]].Pos
		for i, key := range keys {
			e := c.edges[key]
			parts[i] = fmt.Sprintf("acquire of %s (%s) at %s in section %s while holding %s (%s)",
				e.AcqCanon, e.To, e.Pos, e.Section, e.HeldCanon, e.From)
			if e.Pos.Line < pos.Line || (e.Pos.Line == pos.Line && e.Pos.Col < pos.Col) {
				pos = e.Pos
			}
		}
		sort.Strings(scc)
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Severity: Error,
			Code:     CodeLockOrder,
			Message: fmt.Sprintf(
				"lock-order cycle over class(es) %s: %s — no consistent acquisition order exists, so two processors interleaving these acquires deadlock",
				strings.Join(scc, ", "), strings.Join(parts, "; ")),
			Policy: c.policy,
		})
	}
	return diags
}

// solveMustLocksets runs the must-lockset dataflow of the coverage checker
// over one CFG: entry lists lock canons held on entry, active selects the
// regions that acquire under the analyzed view. Shared by the coverage
// (E100–E102) and lock-order (E104) checkers so both reason from the same
// abstract locksets.
func solveMustLocksets(g *CFG, entry []string, active func(*ast.SyncBlock) bool) []lockFact {
	ent := lockFact{held: map[string]bool{}, mVars: map[string]map[string]bool{}}
	for _, name := range entry {
		ent.held[name] = true
		ent.mVars[name] = map[string]bool{name: true}
	}
	tf := func(n *Node, in lockFact) lockFact {
		if in.univ {
			return in
		}
		out := in.clone()
		switch n.Kind {
		case NodeAcquire:
			if active(n.Sync) {
				canon := ast.ExprString(n.Sync.Lock)
				out.held[canon] = true
				out.mVars[canon] = exprVars(n.Sync.Lock)
			}
		case NodeRelease:
			if active(n.Sync) {
				canon := ast.ExprString(n.Sync.Lock)
				delete(out.held, canon)
				delete(out.mVars, canon)
			}
		case NodeStmt:
			switch s := n.Stmt.(type) {
			case *ast.AssignStmt:
				if id, ok := s.LHS.(*ast.Ident); ok {
					out.kill(id.Name)
				}
			case *ast.LetStmt:
				out.kill(s.Name)
			}
		case NodeCond:
			if f, ok := n.Stmt.(*ast.ForStmt); ok {
				out.kill(f.Var)
			}
		}
		return out
	}
	return Solve[lockFact](g, locksLattice{}, ent, tf)
}
