package syncopt

import (
	"fmt"
	"strings"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/sema"
)

// view is one policy's picture of the tree under rewrite: the parameters
// that govern what it may transform and the regions that acquire their
// lock under it. Every legality rule below takes a view.
type view struct {
	params Params
	active func(*ast.SyncBlock) bool
}

// generator is what §4.2 says must differ between the two ways of carrying
// a section's versions; everything else in this file is shared.
type generator interface {
	// expand takes over the synchronization of a statement-level call to a
	// fully synchronized callee, returning the replacement statement or nil.
	expand(s ast.Stmt, call *ast.CallExpr, callee *sema.FuncInfo) ast.Stmt
	// merge coalesces the run of regions that starts with sb = stmts[0],
	// returning the statement that replaces the first n statements.
	merge(sb *ast.SyncBlock, stmts []ast.Stmt) (merged ast.Stmt, n int)
	// lift moves a loop's synchronization out of the loop, returning the
	// statement that replaces the loop or nil.
	lift(loop ast.Stmt, body *ast.Block) ast.Stmt
	// funcDone is told that a sync-set function's body is final.
	funcDone(fi *sema.FuncInfo)
}

// rewriter is the part of the optimizer both generators share: the program
// under rewrite, default placement, the bottom-up traversal, and the §3
// legality rules.
type rewriter struct {
	prog *ast.Program
	info *sema.Info
	cg   *callgraph.Graph
	gen  generator

	// syncSet holds the functions that can execute inside a parallel
	// section; syncNames lists them sorted.
	syncSet   map[string]bool
	syncNames []string
	visited   map[string]bool

	// localTargets resolves calls a generator created itself.
	localTargets map[*ast.CallExpr]string
	// syncFreeMemo caches transitive sync-freedom per function and view.
	syncFreeMemo map[syncFreeKey]bool

	errs []string
}

type syncFreeKey struct {
	v    *view
	full string
}

// newRewriter clones prog (which must have its parallel loops marked),
// checks the clone and finds its sync set.
func newRewriter(prog *ast.Program) (*rewriter, error) {
	prog = ast.CloneProgram(prog)
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("syncopt: recheck clone: %w", err)
	}
	r := &rewriter{
		prog: prog, info: info, cg: callgraph.Build(info),
		syncSet:      map[string]bool{},
		visited:      map[string]bool{},
		localTargets: map[*ast.CallExpr]string{},
		syncFreeMemo: map[syncFreeKey]bool{},
	}
	// The sync set: the operations invoked from parallel loop bodies,
	// transitively.
	var roots []string
	r.forEachParallelLoop(func(loop *ast.ForStmt) {
		callgraph.WalkCalls(loop.Body, func(c *ast.CallExpr) {
			if t, ok := info.CallTarget[c]; ok {
				roots = append(roots, t.FullName())
			}
		})
	})
	r.syncNames = r.cg.Reachable(roots...)
	for _, n := range r.syncNames {
		r.syncSet[n] = true
	}
	return r, nil
}

func (r *rewriter) err() error {
	if len(r.errs) == 0 {
		return nil
	}
	return fmt.Errorf("syncopt: %s", strings.Join(r.errs, "; "))
}

func (r *rewriter) forEachParallelLoop(f func(loop *ast.ForStmt)) {
	for _, fn := range r.prog.Funcs {
		ast.Inspect(fn.Body, func(s ast.Stmt) bool {
			loop, ok := s.(*ast.ForStmt)
			if ok && loop.Parallel {
				f(loop)
				return false // sections do not nest
			}
			return true
		})
	}
}

// forEachSyncBody visits the bodies synchronization is placed in: the
// sync-set functions in declaration order, then the parallel loop bodies.
func (r *rewriter) forEachSyncBody(f func(*ast.Block)) {
	for _, fi := range r.info.AllFuncs() {
		if r.syncSet[fi.FullName()] {
			f(fi.Decl.Body)
		}
	}
	r.forEachParallelLoop(func(loop *ast.ForStmt) { f(loop.Body) })
}

// region builds a critical region on lock around stmts.
func region(s ast.Stmt, lock ast.Expr, site int, stmts ...ast.Stmt) *ast.SyncBlock {
	return &ast.SyncBlock{P: s.Pos(), Lock: lock, Site: site, Body: &ast.Block{P: s.Pos(), Stmts: stmts}}
}

// placeDefault wraps every object update in its own critical region on the
// updated object's lock (§2); site numbers each region.
func (r *rewriter) placeDefault(b *ast.Block, site func() int) {
	for i, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if lhs, ok := s.LHS.(*ast.FieldExpr); ok {
				if !pureExpr(lhs.X) {
					r.errs = append(r.errs, fmt.Sprintf("impure update target %q cannot be synchronized", ast.ExprString(lhs.X)))
					continue
				}
				b.Stmts[i] = region(s, ast.CloneExpr(lhs.X), site(), s)
			}
		case *ast.Block:
			r.placeDefault(s, site)
		case *ast.IfStmt:
			r.placeDefault(s.Then, site)
			if s.Else != nil {
				r.placeDefault(s.Else, site)
			}
		case *ast.WhileStmt:
			r.placeDefault(s.Body, site)
		case *ast.ForStmt:
			r.placeDefault(s.Body, site)
		case *ast.SyncBlock:
			r.placeDefault(s.Body, site)
		}
	}
}

// transform rewrites the sync-set functions bottom-up, then the parallel
// loop bodies.
func (r *rewriter) transform() {
	for _, n := range r.syncNames {
		r.transformFunc(n)
	}
	r.forEachParallelLoop(func(loop *ast.ForStmt) { r.transformBlock(loop.Body) })
}

// transformFunc rewrites one sync-set function after its callees. A
// function on a call-graph cycle is met again while still in progress;
// funcDone has not been called for it then.
func (r *rewriter) transformFunc(full string) {
	fi := r.info.FuncByFullName(full)
	if r.visited[full] || fi == nil {
		return
	}
	r.visited[full] = true
	for _, callee := range r.cg.Succs(full) {
		if r.syncSet[callee] {
			r.transformFunc(callee)
		}
	}
	r.transformBlock(fi.Decl.Body)
	r.gen.funcDone(fi)
}

// transformBlock optimizes the nested statement structures, innermost
// first, then the block's own statement list: calls to fully synchronized
// callees expand into explicit regions, and neighbouring regions on one
// lock coalesce.
func (r *rewriter) transformBlock(b *ast.Block) {
	for i, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.Block:
			r.transformBlock(s)
		case *ast.IfStmt:
			r.transformBlock(s.Then)
			if s.Else != nil {
				r.transformBlock(s.Else)
			}
		case *ast.WhileStmt:
			r.transformLoop(b, i, s.Body)
		case *ast.ForStmt:
			if !s.Parallel { // handled separately; never lift across it
				r.transformLoop(b, i, s.Body)
			}
		case *ast.SyncBlock:
			r.transformBlock(s.Body)
		}
	}
	stmts := make([]ast.Stmt, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = s
		if call, callee := r.stmtCall(s); callee != nil {
			if rep := r.gen.expand(s, call, callee); rep != nil {
				stmts[i] = rep
			}
		}
	}
	var out []ast.Stmt
	for i := 0; i < len(stmts); {
		s, n := stmts[i], 1
		if sb, ok := s.(*ast.SyncBlock); ok && pureExpr(sb.Lock) {
			s, n = r.gen.merge(sb, stmts[i:])
		}
		out = append(out, s)
		i += n
	}
	b.Stmts = out
}

// stmtCall returns the call and its callee when s is a statement-level
// call to a function of the program; the callee is nil otherwise.
func (r *rewriter) stmtCall(s ast.Stmt) (*ast.CallExpr, *sema.FuncInfo) {
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			return call, r.info.CallTarget[call]
		}
	}
	return nil, nil
}

func (r *rewriter) transformLoop(in *ast.Block, i int, body *ast.Block) {
	r.transformBlock(body)
	if lifted := r.gen.lift(in.Stmts[i], body); lifted != nil {
		in.Stmts[i] = lifted
	}
}

// sharedLock returns the lock of the v-active regions in s when they all
// name the same one, nil when there are none or they differ.
func sharedLock(v *view, s ast.Stmt) ast.Expr {
	var lock ast.Expr
	same := true
	ast.Inspect(s, func(s ast.Stmt) bool {
		if sb, ok := s.(*ast.SyncBlock); ok && v.active(sb) {
			if lock == nil {
				lock = sb.Lock
			}
			same = same && ast.ExprString(sb.Lock) == ast.ExprString(lock)
		}
		return same
	})
	if !same {
		return nil
	}
	return lock
}

// lockTarget names the lock of a fully synchronized callee from its
// caller's side: the receiver or an argument.
type lockTarget struct {
	onThis bool
	param  int // parameter index when !onThis
}

// of returns the expression a call passes for the lock, nil if none.
func (lt *lockTarget) of(call *ast.CallExpr) ast.Expr {
	if lt.onThis {
		return call.Recv
	}
	if lt.param < len(call.Args) {
		return call.Args[lt.param]
	}
	return nil
}

// calleeLock decides whether a function is, under v, fully synchronized on
// one lock its callers can name — its receiver or a parameter, never
// reassigned, with nothing outside the regions synchronizing — so that a
// caller may take over its synchronization.
func (r *rewriter) calleeLock(v *view, fi *sema.FuncInfo) *lockTarget {
	if !v.params.ExpandCalls {
		return nil
	}
	body := fi.Decl.Body
	lock := sharedLock(v, body)
	var lt *lockTarget
	switch lk := lock.(type) {
	case *ast.ThisExpr:
		if fi.Class != nil {
			lt = &lockTarget{onThis: true}
		}
	case *ast.Ident:
		for i, p := range fi.Decl.Params {
			if p.Name == lk.Name {
				lt = &lockTarget{param: i}
			}
		}
	}
	if lt == nil || assignsAny(body, ast.Vars(lock)) || !r.callsSyncFreeOutside(v, body) {
		return nil
	}
	return lt
}

// liftableLock decides whether a loop's synchronization may move out of
// the loop under v: its active regions share one pure lock that the loop
// assigns no variable of, nothing else in it synchronizes, and — under the
// Bounded guard — the enlarged region reaches no call-graph cycle (§3).
func (r *rewriter) liftableLock(v *view, loop ast.Stmt) ast.Expr {
	if !v.params.Lift {
		return nil
	}
	lock := sharedLock(v, loop)
	if lock == nil || !pureExpr(lock) || assignsAny(loop, ast.Vars(lock)) || !r.callsSyncFreeOutside(v, loop) {
		return nil
	}
	if v.params.BoundedCycles && r.reachesCycle(loop) {
		return nil
	}
	return lock
}

// nextRegion scans stmts[from:] for the next v-active region on lock,
// across statements a region on lock may absorb; -1 if there is none.
func (r *rewriter) nextRegion(v *view, stmts []ast.Stmt, from int, lock ast.Expr) int {
	for k := from; k < len(stmts); k++ {
		if sb, ok := stmts[k].(*ast.SyncBlock); ok && v.active(sb) {
			if ast.ExprString(sb.Lock) == ast.ExprString(lock) {
				return k
			}
			return -1
		}
		if !r.absorbable(v, stmts[k], lock) {
			return -1
		}
	}
	return -1
}

// absorbable reports whether a statement may be pulled inside a v-active
// region on lock: it must be transitively synchronization-free and must
// not assign any variable the lock expression mentions.
func (r *rewriter) absorbable(v *view, s ast.Stmt, lock ast.Expr) bool {
	return r.syncFree(v, s) && !assignsAny(s, ast.Vars(lock))
}

// syncFree reports whether s contains no v-active region and calls only
// functions that are transitively synchronization-free under v.
func (r *rewriter) syncFree(v *view, s ast.Stmt) bool {
	regions := false
	ast.Inspect(s, func(s ast.Stmt) bool {
		sb, ok := s.(*ast.SyncBlock)
		regions = regions || ok && v.active(sb)
		return !regions
	})
	return !regions && r.callsSyncFreeOutside(v, s)
}

// callsSyncFreeOutside reports whether the calls s evaluates outside its
// v-active regions are all synchronization-free under v, so that a region
// enclosing s introduces no nested locking.
func (r *rewriter) callsSyncFreeOutside(v *view, s ast.Stmt) bool {
	free := true
	ast.Inspect(s, func(s ast.Stmt) bool {
		if sb, ok := s.(*ast.SyncBlock); ok && v.active(sb) {
			return false
		}
		free = free && r.operandsSyncFree(v, s)
		return free
	})
	return free
}

func (r *rewriter) operandsSyncFree(v *view, s ast.Stmt) bool {
	free := true
	for _, e := range ast.Operands(s) {
		callgraph.WalkExprCalls(e, func(c *ast.CallExpr) {
			if name, ok := r.callTargetName(c); ok && !r.funcSyncFree(v, name) {
				free = false
			}
		})
	}
	return free
}

// callTargetName resolves a call's target full name, consulting both the
// checked info and the calls a generator created.
func (r *rewriter) callTargetName(c *ast.CallExpr) (string, bool) {
	if t, ok := r.info.CallTarget[c]; ok {
		return t.FullName(), true
	}
	n, ok := r.localTargets[c]
	return n, ok
}

// funcSyncFree reports whether the named function's (current) body and its
// callees contain no synchronization under v.
func (r *rewriter) funcSyncFree(v *view, full string) bool {
	key := syncFreeKey{v, full}
	if free, ok := r.syncFreeMemo[key]; ok {
		return free
	}
	r.syncFreeMemo[key] = true // optimistic for recursion
	// A name that is not in the program is a generated unsynchronized
	// variant; anything else unknown is conservatively not free.
	free := strings.HasSuffix(full, UnsyncSuffix)
	if fi := r.info.FuncByFullName(full); fi != nil {
		free = r.syncFree(v, fi.Decl.Body)
	}
	r.syncFreeMemo[key] = free
	return free
}

// reachesCycle reports whether any call in the prospective region reaches
// a call-graph cycle; the Bounded guard then declines the transformation.
func (r *rewriter) reachesCycle(region ...ast.Stmt) bool {
	var targets []string
	for _, s := range region {
		callgraph.WalkCalls(s, func(c *ast.CallExpr) {
			if n, ok := r.callTargetName(c); ok {
				targets = append(targets, strings.TrimSuffix(n, UnsyncSuffix))
			}
		})
	}
	return r.cg.CanReachCycle(targets...)
}

// pureExpr reports whether e has no side effects and is stable under
// re-evaluation (identifiers, this, field and index chains).
func pureExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.ThisExpr, *ast.IntLit, *ast.FloatLit, *ast.BoolLit:
		return true
	case *ast.FieldExpr:
		return pureExpr(e.X)
	case *ast.IndexExpr:
		return pureExpr(e.X) && pureExpr(e.Index)
	case *ast.BinExpr:
		return pureExpr(e.L) && pureExpr(e.R)
	case *ast.UnExpr:
		return pureExpr(e.X)
	default:
		return false
	}
}

// assignsAny reports whether s assigns, declares or iterates any of vars.
func assignsAny(s ast.Stmt, vars map[string]bool) bool {
	found := false
	ast.Inspect(s, func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if id, ok := s.LHS.(*ast.Ident); ok && vars[id.Name] {
				found = true
			}
		case *ast.LetStmt:
			found = found || vars[s.Name]
		case *ast.ForStmt:
			found = found || vars[s.Var]
		}
		return !found
	})
	return found
}

// stripSyncBlocks replaces every SyncBlock in the tree with its body.
func stripSyncBlocks(b *ast.Block) {
	for i, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.SyncBlock:
			stripSyncBlocks(s.Body)
			b.Stmts[i] = s.Body
		case *ast.Block:
			stripSyncBlocks(s)
		case *ast.IfStmt:
			stripSyncBlocks(s.Then)
			if s.Else != nil {
				stripSyncBlocks(s.Else)
			}
		case *ast.WhileStmt:
			stripSyncBlocks(s.Body)
		case *ast.ForStmt:
			stripSyncBlocks(s.Body)
		}
	}
}
