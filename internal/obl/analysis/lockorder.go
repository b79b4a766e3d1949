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
// per-version lock-order graph with cycle detection over lock classes. Its
// edges come from the one must-lockset walk of lockset.go, which reads
// them off the same solved facts as the coverage findings.
//
// The coverage checks (E100–E102) validate that every shared access holds
// the right lock; they say nothing about the *order* in which a version
// acquires multiple locks. The coarsening and lifting transforms of the
// generated policy space reorder and enlarge critical regions, so two
// generated versions can each be coverage-correct yet acquire a pair of
// locks in opposite orders — a statically latent deadlock that only a
// particular interleaving exposes. The walk re-derives the ordering
// obligation: whenever an active acquire executes while other locks are
// held — its own body's, the ones passed in as formals, and the ones its
// callers keep under a callerHeld name — the graph gains an edge from each
// held lock's class to the acquired lock's class; any cycle — including a
// self-edge, two objects of one class acquired in inconsistent order on
// one code path — means no global acquisition order exists, and two
// processors interleaving the edge's acquire sites can block each other
// forever.
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

// entryLock is a lock held on entry to a callee body, renamed to the
// callee's formal, with the class it had at the call site.
type entryLock struct {
	name  string
	class string
}

// callerHeld prefixes the name of a lock that stays held across a call
// that does not pass it: no OBL expression renders with an apostrophe, so
// nothing in the callee can name, release or kill it.
const callerHeld = "caller's "

// classOf returns the class name of a lock expression, or "" when the
// checked program gives it no class type (malformed mutants).
func (c *lockChecker) classOf(e ast.Expr) string {
	if cl, ok := c.info.ExprType[e].(sema.Class); ok {
		return cl.Info.Name
	}
	return ""
}

// orderAcquire records an order edge from the class of every other lock
// held at an active acquire to the class of the lock it acquires.
func (c *lockChecker) orderAcquire(sb *ast.SyncBlock, fact lockFact, classByCanon map[string]string) {
	acqCanon := ast.ExprString(sb.Lock)
	acqClass := c.classOf(sb.Lock)
	if acqClass == "" {
		return
	}
	for _, held := range heldNames(fact) {
		heldClass := classByCanon[held]
		if held == acqCanon || heldClass == "" {
			continue // a reacquire of the same object is not an ordering
		}
		key := [2]string{heldClass, acqClass}
		if _, ok := c.edges[key]; !ok {
			c.edges[key] = orderEdge{
				From: heldClass, To: acqClass, Pos: sb.P,
				HeldCanon: held, AcqCanon: acqCanon, Section: c.section,
			}
		}
	}
}

// reportCycles finds the strongly connected components of the class graph
// and emits one OBL-E104 diagnostic per deadlock-capable component: more
// than one class, or a single class with a self-edge.
func (c *lockChecker) reportCycles() []Diagnostic {
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
