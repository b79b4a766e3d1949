package analysis

import "repro/internal/obl/ast"

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

// meet combines the facts of two predecessors: a lock is held after a merge
// only if it is held on both sides. univ is its identity.
func meet(a, b lockFact) lockFact {
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

// equal reports whether two facts hold the same locks (for termination).
func (f lockFact) equal(g lockFact) bool {
	if f.univ != g.univ || len(f.held) != len(g.held) {
		return false
	}
	for k := range f.held {
		if !g.held[k] {
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

// solve runs the must-lockset dataflow over one CFG by forward worklist
// iteration and returns the fact entering every node. entry is the fact
// entering the Entry node, active selects the regions that acquire under
// the analyzed view, and nodes never reached from Entry keep univ.
func solve(g *CFG, entry lockFact, active func(*ast.SyncBlock) bool) []lockFact {
	in := make([]lockFact, len(g.Nodes))
	out := make([]lockFact, len(g.Nodes))
	for i := range in {
		in[i], out[i] = lockFact{univ: true}, lockFact{univ: true}
	}
	in[g.Entry] = entry

	work := []int{g.Entry}
	queued := make([]bool, len(g.Nodes))
	queued[g.Entry] = true
	for len(work) > 0 {
		idx := work[0]
		work = work[1:]
		queued[idx] = false
		n := g.Nodes[idx]
		if idx != g.Entry {
			in[idx] = lockFact{univ: true}
			for _, p := range n.Preds {
				in[idx] = meet(in[idx], out[p])
			}
		}
		next := transfer(n, in[idx], active)
		if out[idx].equal(next) {
			continue
		}
		out[idx] = next
		for _, s := range n.Succs {
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// transfer maps the fact entering a node to the fact leaving it: an active
// region's acquire adds its lock and its release removes it, and assigning,
// declaring or iterating a variable kills the locks named through it.
func transfer(n *Node, in lockFact, active func(*ast.SyncBlock) bool) lockFact {
	if in.univ {
		return in
	}
	out := in.clone()
	switch n.Kind {
	case NodeAcquire:
		if active(n.Sync) {
			canon := ast.ExprString(n.Sync.Lock)
			out.held[canon] = true
			out.mVars[canon] = ast.Vars(n.Sync.Lock)
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
