// Package callgraph builds the static call graph of a checked OBL program
// and answers the queries the compiler needs: reachability (to find the
// extent of a parallel section and the methods that need synchronization)
// and cycle membership (the Bounded synchronization policy applies the
// lock elimination transformation only if the new critical region will
// contain no cycles in the call graph, §3).
package callgraph

import (
	"sort"

	"repro/internal/obl/ast"
	"repro/internal/obl/sema"
)

// Graph is a call graph over functions and methods, keyed by full name
// ("name" or "Class::name"). Extern and builtin calls are not nodes: they
// cannot call back into the program.
type Graph struct {
	info  *sema.Info
	succs map[string][]string
	// cyclic holds the members of multi-member SCCs and the directly
	// recursive functions.
	cyclic map[string]bool
}

// Build constructs the call graph for a checked program.
func Build(info *sema.Info) *Graph {
	g := &Graph{
		info:   info,
		succs:  map[string][]string{},
		cyclic: map[string]bool{},
	}
	for _, fi := range info.AllFuncs() {
		name := fi.FullName()
		seen := map[string]bool{}
		var succs []string
		WalkCalls(fi.Decl.Body, func(call *ast.CallExpr) {
			target, ok := info.CallTarget[call]
			if !ok {
				return
			}
			tn := target.FullName()
			if tn == name {
				g.cyclic[name] = true
			}
			if !seen[tn] {
				seen[tn] = true
				succs = append(succs, tn)
			}
		})
		sort.Strings(succs)
		g.succs[name] = succs
	}
	names := make([]string, 0, len(g.succs))
	for n := range g.succs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, scc := range SCCs(names, g.succs) {
		if len(scc) > 1 {
			for _, n := range scc {
				g.cyclic[n] = true
			}
		}
	}
	return g
}

// WalkCalls visits every call expression in a statement tree.
func WalkCalls(s ast.Stmt, f func(*ast.CallExpr)) {
	ast.Inspect(s, func(s ast.Stmt) bool {
		for _, e := range ast.Operands(s) {
			WalkExprCalls(e, f)
		}
		return true
	})
}

// WalkExprCalls visits every call expression in an expression tree, in
// pre-order.
func WalkExprCalls(e ast.Expr, f func(*ast.CallExpr)) {
	ast.InspectExpr(e, func(e ast.Expr) bool {
		if call, ok := e.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}

// Succs returns the direct callees of the named function, sorted.
func (g *Graph) Succs(full string) []string { return g.succs[full] }

// SCCs computes strongly connected components (iterative Tarjan) over the
// deterministic node and successor orders supplied. Components come out in
// completion order, each listing its members in stack-pop order.
func SCCs(names []string, succ map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0

	type frame struct {
		n  string
		si int
	}
	for _, root := range names {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.si < len(succ[f.n]) {
				s := succ[f.n][f.si]
				f.si++
				if _, seen := index[s]; !seen {
					index[s], low[s] = next, next
					next++
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, frame{n: s})
				} else if onStack[s] {
					if index[s] < low[f.n] {
						low[f.n] = index[s]
					}
				}
				continue
			}
			if low[f.n] == index[f.n] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == f.n {
						break
					}
				}
				out = append(out, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[f.n] < low[p] {
					low[p] = low[f.n]
				}
			}
		}
	}
	return out
}

// InCycle reports whether the named function participates in a call-graph
// cycle (a multi-member SCC, or direct recursion).
func (g *Graph) InCycle(full string) bool { return g.cyclic[full] }

// Reachable returns every function reachable from the given roots
// (including the roots themselves if they are program functions), sorted.
func (g *Graph) Reachable(roots ...string) []string {
	seen := map[string]bool{}
	var stack []string
	for _, r := range roots {
		if _, ok := g.succs[r]; ok && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CanReachCycle reports whether any function reachable from the given
// roots (including themselves) participates in a cycle. The Bounded policy
// declines to build a critical region when this holds: the region's
// dynamic size would be unbounded (§3).
func (g *Graph) CanReachCycle(roots ...string) bool {
	for _, n := range g.Reachable(roots...) {
		if g.InCycle(n) {
			return true
		}
	}
	return false
}
