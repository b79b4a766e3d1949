// Package syncopt implements the synchronization optimizations of §3: the
// default placement of acquire/release constructs around object updates
// (§2), the lock elimination transformations (critical-region coalescing
// and interprocedural lock lifting), and the three policies that govern
// their use:
//
//   - Original: never apply the transformations; every update executes in
//     its own critical region.
//   - Bounded: apply a transformation only if the new critical region will
//     contain no cycles in the call graph, bounding the dynamic size of the
//     region and hence the severity of any false exclusion.
//   - Aggressive: always apply the transformations.
//
// §4.2 offers two ways to carry a section's versions, and the package has
// one generator for each: Rewrite produces multi-version code, one program
// per policy (or per point of the Params space), and RewriteFlagged
// produces flag-dispatch code, one program whose every region is a
// conditional site with a flag per policy. The two must differ only in how
// a policy's regions are materialised, never in which regions are legal,
// so the §3 legality rules exist once (rules.go), stated over a view: one
// policy's picture of the tree under rewrite, made of its Params and a
// predicate telling which regions acquire their lock under it. The
// multi-version generator is one view in which every region is active; the
// flag-dispatch generator is one view per transforming policy over the
// site table. Both run the same default placement and the same bottom-up
// traversal, and answer four questions their own way, because flags are
// global and versions are not:
//
//   - expanding a call to a fully synchronized callee (Figure 1 → Figure
//     2): a region around a call to an unsynchronized variant of the
//     callee, decided per call site — or a conditional region around the
//     unchanged call, decided once for all call sites, because it must
//     switch off the callee's own sites;
//   - merging a run of regions on one lock: flattening their bodies into
//     one region, as far as the coarsening bound and the cycle guard allow
//     — or wrapping the run in a new site that Bounded joins only whole;
//   - lifting a loop's synchronization: stripping the loop's regions — or
//     switching them off for one policy at a time under a site of its own;
//   - finishing: installing the generated variants — or pruning the sites
//     no policy enables.
//
// Both rewrite a checked clone of their input; the caller checks the
// result again before lowering it.
package syncopt

import (
	"repro/internal/obl/ast"
	"repro/internal/obl/sema"
)

// Policy selects a synchronization optimization policy.
type Policy string

// The paper's three policies.
const (
	Original   Policy = "original"
	Bounded    Policy = "bounded"
	Aggressive Policy = "aggressive"
)

// AllPolicies lists the policies in the paper's order.
var AllPolicies = []Policy{Original, Bounded, Aggressive}

// UnsyncSuffix is appended to generated unsynchronized variants.
const UnsyncSuffix = "__unsync"

// Params parameterizes the synchronization transformations. The paper's
// three policies are presets over this space (ParamsFor); the policy
// generator (internal/obl/polgen) explores the rest of it.
type Params struct {
	// Transform enables the lock elimination transformations at all.
	// False reproduces the Original policy: every update in its own
	// critical region.
	Transform bool
	// BoundedCycles declines any transformation whose resulting region
	// would contain a call-graph cycle (the Bounded policy's guard).
	BoundedCycles bool
	// MaxCoalesce bounds how many critical regions may be coalesced into
	// one enlarged region (the lock-coarsening level). 0 means unlimited;
	// 1 disables coalescing entirely.
	MaxCoalesce int
	// Lift enables interprocedural and loop lock lifting.
	Lift bool
	// ExpandCalls enables expanding calls to fully synchronized callees
	// into explicit regions around unsynchronized variants, the
	// precondition for cross-call coalescing.
	ExpandCalls bool
}

// ParamsFor returns the parameter preset that reproduces a paper policy.
func ParamsFor(p Policy) Params {
	switch p {
	case Bounded:
		return Params{Transform: true, BoundedCycles: true, Lift: true, ExpandCalls: true}
	case Aggressive:
		return Params{Transform: true, Lift: true, ExpandCalls: true}
	default:
		return Params{}
	}
}

// multiVersion is the generator of §4.2's multi-version code: one program
// per policy, in which every region is active. A fully synchronized callee
// gets an unsynchronized variant, and each call site decides for itself
// whether to take the lock and call the variant.
type multiVersion struct {
	*rewriter
	view *view
	// class holds, per finished function, the lock its callers may take
	// over; an entry means the unsynchronized variant exists.
	class map[string]*lockTarget
	// newFuncs and newMethods (by class) collect the generated variants.
	newFuncs   []*ast.FuncDecl
	newMethods map[string][]*ast.FuncDecl
}

// Rewrite returns a copy of prog with critical regions placed and
// optimized under one parameter point (ParamsFor gives the paper's
// policies). prog must be checked and have its parallel loops marked
// (commute.AnalyzeLoops); the caller checks the result before lowering it.
func Rewrite(prog *ast.Program, params Params) (*ast.Program, error) {
	r, err := newRewriter(prog)
	if err != nil {
		return nil, err
	}
	g := &multiVersion{
		rewriter:   r,
		view:       &view{params: params, active: func(*ast.SyncBlock) bool { return true }},
		class:      map[string]*lockTarget{},
		newMethods: map[string][]*ast.FuncDecl{},
	}
	r.gen = g
	r.forEachSyncBody(func(b *ast.Block) { r.placeDefault(b, func() int { return 0 }) })
	if params.Transform {
		r.transform()
	}
	r.prog.Funcs = append(r.prog.Funcs, g.newFuncs...)
	for _, c := range r.prog.Classes {
		c.Methods = append(c.Methods, g.newMethods[c.Name]...)
	}
	return r.prog, r.err()
}

// funcDone generates the unsynchronized variant of a function whose
// callers may take over its synchronization.
func (g *multiVersion) funcDone(fi *sema.FuncInfo) {
	lt := g.calleeLock(g.view, fi)
	if lt == nil {
		return
	}
	unsync := ast.CloneFunc(fi.Decl)
	unsync.Name += UnsyncSuffix
	stripSyncBlocks(unsync.Body)
	if fi.Class != nil {
		g.newMethods[fi.Class.Name] = append(g.newMethods[fi.Class.Name], unsync)
	} else {
		g.newFuncs = append(g.newFuncs, unsync)
	}
	g.class[fi.FullName()] = lt
}

// expand turns the call into a region around a call to the callee's
// unsynchronized variant, if this call site can name the lock.
func (g *multiVersion) expand(s ast.Stmt, call *ast.CallExpr, callee *sema.FuncInfo) ast.Stmt {
	lt := g.class[callee.FullName()]
	if lt == nil || !pureExpr(lt.of(call)) {
		return nil
	}
	if g.view.params.BoundedCycles && g.reachesCycle(callee.Decl.Body) {
		return nil // the new region would contain a call-graph cycle (§3)
	}
	unsync := &ast.CallExpr{P: call.P, Recv: ast.CloneExpr(call.Recv), Name: callee.Decl.Name + UnsyncSuffix}
	for _, a := range call.Args {
		unsync.Args = append(unsync.Args, ast.CloneExpr(a))
	}
	g.localTargets[unsync] = callee.FullName() + UnsyncSuffix
	return region(s, ast.CloneExpr(lt.of(call)), 0, &ast.ExprStmt{P: s.Pos(), X: unsync})
}

// merge flattens the following same-lock regions, and the synchronization-
// free statements between them, into one enlarged region — which is what
// eliminates the intermediate release and acquire constructs (§3) —
// checking the coarsening bound and the cycle guard at every step.
func (g *multiVersion) merge(sb *ast.SyncBlock, stmts []ast.Stmt) (ast.Stmt, int) {
	p := g.view.params
	body, n := sb.Body.Stmts, 1
	for merged := 1; p.MaxCoalesce <= 0 || merged < p.MaxCoalesce; merged++ {
		k := g.nextRegion(g.view, stmts, n, sb.Lock)
		if k < 0 {
			break
		}
		candidate := append(append(append([]ast.Stmt{}, body...), stmts[n:k]...), stmts[k].(*ast.SyncBlock).Body.Stmts...)
		if p.BoundedCycles && g.reachesCycle(candidate...) {
			break
		}
		body, n = candidate, k+1
	}
	if n == 1 {
		return sb, 1
	}
	return region(sb, sb.Lock, 0, body...), n
}

// lift strips the loop's regions and wraps the loop in one.
func (g *multiVersion) lift(loop ast.Stmt, body *ast.Block) ast.Stmt {
	lock := g.liftableLock(g.view, loop)
	if lock == nil {
		return nil
	}
	stripSyncBlocks(body)
	return region(loop, ast.CloneExpr(lock), 0, loop)
}
