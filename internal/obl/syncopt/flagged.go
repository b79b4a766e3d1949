package syncopt

import (
	"repro/internal/obl/ast"
	"repro/internal/obl/sema"
)

// FlaggedInfo describes the flag-dispatch compilation of a program: the
// §4.2 single-version alternative. The compiler generates one version of
// the code with a conditional acquire or release construct at every site
// that may acquire or release a lock in any of the synchronization
// optimization policies; each site has a flag, and the generated code
// switches policies by changing the values of the flags. The advantage is
// the guarantee of no code growth; the disadvantage is the residual flag
// checking overhead at each conditional site.
type FlaggedInfo struct {
	// NumSites is the number of conditional synchronization sites.
	NumSites int
	// Enabled maps each policy to its flag vector (index = site ID - 1).
	Enabled map[Policy][]bool
}

// ActiveFor reports whether a synchronization site acquires its lock under
// the given policy: site zero (an unconditional region) always does, and a
// conditional site does when the policy's flag for it is set. This is the
// per-policy placement fact consumers like the static safety analyzer need
// to reconstruct each policy's view of the flag-dispatch program.
func (fi *FlaggedInfo) ActiveFor(site int, p Policy) bool {
	if site <= 0 {
		return true
	}
	vec := fi.Enabled[p]
	if site > len(vec) {
		return false
	}
	return vec[site-1]
}

// ActiveSites returns the number of sites a policy enables.
func (fi *FlaggedInfo) ActiveSites(p Policy) int {
	n := 0
	for _, on := range fi.Enabled[p] {
		if on {
			n++
		}
	}
	return n
}

// flagDispatch is the generator of §4.2's single-version code: every
// region is a conditional site, and a policy is the set of sites it
// enables. Coalescing and lifting create enclosing sites enabled for the
// policies that perform them and disable the covered interior sites for
// those policies; interprocedural lifting wraps call sites instead of
// generating unsynchronized callee variants, so there is one version of
// every function.
type flagDispatch struct {
	*rewriter
	sites []map[Policy]bool // index = site ID - 1
	// views are the transforming policies' pictures of the site table.
	views map[Policy]*view
	// callSites lists every statement-level call per callee, taken before
	// any region can absorb one. Expansion is all-or-nothing per (callee,
	// policy) because flags are global.
	callSites map[string][]*ast.CallExpr
	// decided memoizes, per callee, the lock each policy takes over at the
	// call sites. It is captured when the decision is made: disabling the
	// callee's sites changes what calleeLock would say afterwards.
	decided map[string]map[Policy]*lockTarget
}

// transforming lists the policies that enlarge regions, outermost last
// where their sites nest.
var transforming = []Policy{Aggressive, Bounded}

// RewriteFlagged returns a copy of prog in flag-dispatch form: every
// critical region any policy would create is a conditional region with its
// own site ID, and the FlaggedInfo records which sites each policy
// enables. Regions that no policy enables are pruned. The preconditions
// are Rewrite's.
func RewriteFlagged(prog *ast.Program) (*ast.Program, *FlaggedInfo, error) {
	r, err := newRewriter(prog)
	if err != nil {
		return nil, nil, err
	}
	g := &flagDispatch{
		rewriter:  r,
		views:     map[Policy]*view{},
		callSites: map[string][]*ast.CallExpr{},
		decided:   map[string]map[Policy]*lockTarget{},
	}
	r.gen = g
	for _, p := range transforming {
		g.views[p] = &view{params: ParamsFor(p), active: func(sb *ast.SyncBlock) bool {
			return sb.Site <= 0 || g.sites[sb.Site-1][p]
		}}
	}
	// Default placement is enabled for every policy.
	r.forEachSyncBody(func(b *ast.Block) {
		r.placeDefault(b, func() int { return g.newSite(AllPolicies...) })
	})
	r.forEachSyncBody(func(b *ast.Block) {
		ast.Inspect(b, func(s ast.Stmt) bool {
			if call, callee := r.stmtCall(s); callee != nil {
				g.callSites[callee.FullName()] = append(g.callSites[callee.FullName()], call)
			}
			return true
		})
	})
	r.transform()
	for _, fi := range r.info.AllFuncs() {
		g.prune(fi.Decl.Body)
	}
	if err := r.err(); err != nil {
		return nil, nil, err
	}
	out := &FlaggedInfo{NumSites: len(g.sites), Enabled: map[Policy][]bool{}}
	for _, p := range AllPolicies {
		vec := make([]bool, len(g.sites))
		for i, site := range g.sites {
			vec[i] = site[p]
		}
		out.Enabled[p] = vec
	}
	return r.prog, out, nil
}

func (g *flagDispatch) newSite(enabled ...Policy) int {
	m := map[Policy]bool{}
	for _, p := range enabled {
		m[p] = true
	}
	g.sites = append(g.sites, m)
	return len(g.sites)
}

// disable switches off, for the given policies, every site in s.
func (g *flagDispatch) disable(s ast.Stmt, policies ...Policy) {
	ast.Inspect(s, func(s ast.Stmt) bool {
		if sb, ok := s.(*ast.SyncBlock); ok && sb.Site > 0 {
			for _, p := range policies {
				delete(g.sites[sb.Site-1], p)
			}
		}
		return true
	})
}

func (*flagDispatch) funcDone(*sema.FuncInfo) {}

// expand wraps the call in a conditional region for the policies whose
// all-call-sites decision for the callee fired: one region when they agree
// on the lock (the common case), nested regions otherwise.
func (g *flagDispatch) expand(s ast.Stmt, call *ast.CallExpr, callee *sema.FuncInfo) ast.Stmt {
	lock := g.decide(callee)
	if a, b := lock[Aggressive], lock[Bounded]; a != nil && b != nil && *a == *b {
		return region(s, ast.CloneExpr(a.of(call)), g.newSite(Bounded, Aggressive), s)
	}
	wrapped := s
	for _, p := range transforming {
		if lt := lock[p]; lt != nil {
			wrapped = region(s, ast.CloneExpr(lt.of(call)), g.newSite(p), wrapped)
		}
	}
	if wrapped == s {
		return nil
	}
	return wrapped
}

// decide makes the all-call-sites decision for a callee: a policy takes
// over its synchronization when the callee is fully synchronized under
// the policy's view, every statement-level call site names the lock with
// a pure expression, and — under the Bounded guard — the enlarged region
// reaches no call-graph cycle. The callee's interior sites are then
// disabled for that policy, exactly once.
func (g *flagDispatch) decide(callee *sema.FuncInfo) map[Policy]*lockTarget {
	full := callee.FullName()
	if d, ok := g.decided[full]; ok {
		return d
	}
	d := map[Policy]*lockTarget{}
	g.decided[full] = d
	if !g.syncSet[full] {
		return d
	}
	for _, p := range transforming {
		v := g.views[p]
		lt := g.calleeLock(v, callee)
		if lt == nil {
			continue
		}
		ok := len(g.callSites[full]) > 0
		for _, call := range g.callSites[full] {
			ok = ok && pureExpr(lt.of(call))
		}
		if ok && !(v.params.BoundedCycles && g.reachesCycle(callee.Decl.Body)) {
			d[p] = lt
		}
	}
	for _, p := range transforming {
		if d[p] != nil {
			g.disable(callee.Decl.Body, p)
			// What is synchronization-free under p has changed.
			g.syncFreeMemo = map[syncFreeKey]bool{}
		}
	}
	return d
}

// merge wraps the run of same-lock regions in a new site. Runs are
// detected on the Aggressive view (Aggressive always coalesces); Bounded
// joins when it could absorb the whole run and the enlarged region
// reaches no cycle.
func (g *flagDispatch) merge(sb *ast.SyncBlock, stmts []ast.Stmt) (ast.Stmt, int) {
	aggressive, bounded := g.views[Aggressive], g.views[Bounded]
	if !aggressive.active(sb) {
		return sb, 1
	}
	n := 1
	for {
		k := g.nextRegion(aggressive, stmts, n, sb.Lock)
		if k < 0 {
			break
		}
		n = k + 1
	}
	if n == 1 {
		return sb, 1
	}
	span := append([]ast.Stmt{}, stmts[:n]...)
	enabled := []Policy{Aggressive}
	if !(bounded.params.BoundedCycles && g.reachesCycle(span...)) && g.spanAbsorbable(bounded, span, sb.Lock) {
		enabled = append(enabled, Bounded)
	}
	for _, st := range span {
		g.disable(st, enabled...)
	}
	return region(sb, ast.CloneExpr(sb.Lock), g.newSite(enabled...), span...), n
}

// spanAbsorbable checks the statements of a span that are not regions on
// lock (those are handled by disabling their sites).
func (g *flagDispatch) spanAbsorbable(v *view, span []ast.Stmt, lock ast.Expr) bool {
	for _, st := range span {
		if sb, ok := st.(*ast.SyncBlock); ok && ast.ExprString(sb.Lock) == ast.ExprString(lock) {
			continue
		}
		if !g.absorbable(v, st, lock) {
			return false
		}
	}
	return true
}

// lift wraps the loop in one site per policy that may lift, disabling the
// loop's own sites for that policy.
func (g *flagDispatch) lift(loop ast.Stmt, body *ast.Block) ast.Stmt {
	var wrapped ast.Stmt
	for _, p := range transforming {
		lock := g.liftableLock(g.views[p], loop)
		if lock == nil {
			continue
		}
		g.disable(body, p)
		inner := loop
		if wrapped != nil {
			inner = wrapped
		}
		wrapped = region(loop, ast.CloneExpr(lock), g.newSite(p), inner)
	}
	return wrapped
}

// prune replaces regions no policy enables with their bodies.
func (g *flagDispatch) prune(b *ast.Block) {
	for i, s := range b.Stmts {
		switch s := s.(type) {
		case *ast.SyncBlock:
			g.prune(s.Body)
			if s.Site > 0 && len(g.sites[s.Site-1]) == 0 {
				b.Stmts[i] = s.Body
			}
		case *ast.Block:
			g.prune(s)
		case *ast.IfStmt:
			g.prune(s.Then)
			if s.Else != nil {
				g.prune(s.Else)
			}
		case *ast.WhileStmt:
			g.prune(s.Body)
		case *ast.ForStmt:
			g.prune(s.Body)
		}
	}
}
