// Package commute implements commutativity analysis (§2): the compiler
// analyzes computations at the granularity of operations on objects and
// determines when operations commute — generate the same result regardless
// of the order in which they execute. Loops whose operations all commute
// are parallelized; they become the parallel sections that dynamic feedback
// later optimizes.
//
// The analysis symbolically executes each operation to summarize its
// effects: the final symbolic value of every updated instance variable, the
// instance variables it reads, and the multiset of operations it invokes.
// Two operations commute when (a) neither reads an instance variable the
// other writes, and (b) every instance variable both write is updated by a
// compatible commutative reduction (o.f = o.f ⊕ e with the same associative
// and commutative ⊕, whose e reads no written variable), or by identical
// idempotent assignments. Invocation multisets are unaffected by execution
// order because invocation arguments read no written variables (checked by
// (a)); invoked operations are themselves members of the extent and are
// tested pairwise. Like the paper's compiler, the analysis treats
// floating-point + and * as associative and commutative.
package commute

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/sema"
	"repro/internal/obl/token"
)

// UpdateKind classifies how an operation updates an instance variable.
type UpdateKind int

const (
	// UpdateSum is o.f = o.f + e.
	UpdateSum UpdateKind = iota
	// UpdateProd is o.f = o.f * e.
	UpdateProd
	// UpdateAssign is a plain overwrite.
	UpdateAssign
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateSum:
		return "sum"
	case UpdateProd:
		return "product"
	case UpdateAssign:
		return "assign"
	default:
		return fmt.Sprintf("UpdateKind(%d)", int(k))
	}
}

// FieldUpdate summarizes the merged updates of one instance variable.
type FieldUpdate struct {
	Kind UpdateKind
	// Value is the delta (for Sum/Prod) or assigned value (for Assign).
	Value Sym
	// Exact reports whether Value is exactly known; loop- or branch-merged
	// updates are inexact and only their kind and read set are trusted.
	Exact bool
}

// Summary is the symbolic effect summary of one operation.
type Summary struct {
	// Name identifies the operation (function full name, or a loop label
	// for parallel-loop root operations).
	Name string
	// Reads is the set of instance variable names the operation's behaviour
	// depends on, excluding the self slot of reduction updates. The pseudo
	// field "$elem" stands for array element accesses.
	Reads map[string]bool
	// Writes maps updated instance variable names to update summaries.
	Writes map[string]FieldUpdate
	// Invokes is the set of operations invoked (full names).
	Invokes map[string]bool
	// Blockers lists structural reasons the operation cannot participate in
	// a parallel loop at all (returns or assignments to captured locals
	// inside a candidate loop body, I/O).
	Blockers []string
}

// CommuteResult reports whether a pair of operations commutes.
type CommuteResult struct {
	OK     bool
	Reason string
}

// commutePair applies the commutativity test to two summaries built in
// distinct naming spaces ("A"/"B") with a shared receiver symbol.
func commutePair(a, b *Summary) CommuteResult {
	for f := range a.Writes {
		if b.Reads[f] {
			return CommuteResult{false, fmt.Sprintf("%s writes %q which %s reads", a.Name, f, b.Name)}
		}
	}
	for f := range b.Writes {
		if a.Reads[f] {
			return CommuteResult{false, fmt.Sprintf("%s writes %q which %s reads", b.Name, f, a.Name)}
		}
	}
	for f, ua := range a.Writes {
		ub, both := b.Writes[f]
		if !both {
			continue
		}
		switch {
		case ua.Kind == UpdateSum && ub.Kind == UpdateSum,
			ua.Kind == UpdateProd && ub.Kind == UpdateProd:
			// Compatible commutative reductions. Their deltas read no
			// written variable (checked above, delta reads ⊆ Reads).
		case ua.Kind == UpdateAssign && ub.Kind == UpdateAssign &&
			ua.Exact && ub.Exact && ua.Value.Canon() == ub.Value.Canon():
			// Identical idempotent overwrites.
		default:
			return CommuteResult{false, fmt.Sprintf(
				"%s and %s update %q incompatibly (%s vs %s)", a.Name, b.Name, f, ua.Kind, ub.Kind)}
		}
	}
	return CommuteResult{OK: true}
}

// Describe renders the summary for compiler diagnostics: the update kinds
// per written instance variable, the read set, and the invoked operations.
func (s *Summary) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	if len(s.Writes) == 0 {
		b.WriteString(" no updates")
	}
	for _, f := range sortedFieldNames(s.Writes) {
		u := s.Writes[f]
		exact := ""
		if !u.Exact {
			exact = " (inexact)"
		}
		fmt.Fprintf(&b, "\n  updates %-12s %s%s", f, u.Kind, exact)
	}
	if len(s.Reads) > 0 {
		names := make([]string, 0, len(s.Reads))
		for f := range s.Reads {
			names = append(names, f)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n  reads   %s", strings.Join(names, ", "))
	}
	if len(s.Invokes) > 0 {
		names := make([]string, 0, len(s.Invokes))
		for f := range s.Invokes {
			names = append(names, f)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n  invokes %s", strings.Join(names, ", "))
	}
	for _, blk := range s.Blockers {
		fmt.Fprintf(&b, "\n  blocker %s", blk)
	}
	return b.String()
}

func sortedFieldNames(m map[string]FieldUpdate) []string {
	out := make([]string, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Analysis runs commutativity analysis over a checked program.
type Analysis struct {
	Info *sema.Info
	CG   *callgraph.Graph

	sums map[string]*Summary // key: space + "\x00" + full name
}

// New creates an Analysis.
func New(info *sema.Info, cg *callgraph.Graph) *Analysis {
	return &Analysis{Info: info, CG: cg, sums: map[string]*Summary{}}
}

// Summary returns the memoized effect summary of a function in the given
// naming space ("A" or "B").
func (a *Analysis) Summary(space, full string) *Summary {
	key := space + "\x00" + full
	if s, ok := a.sums[key]; ok {
		return s
	}
	fi := a.Info.FuncByFullName(full)
	if fi == nil {
		// Should not happen for call-graph names; be conservative.
		s := &Summary{Name: full, Reads: map[string]bool{"$unknown": true},
			Writes:  map[string]FieldUpdate{"$unknown": {Kind: UpdateAssign}},
			Invokes: map[string]bool{}}
		a.sums[key] = s
		return s
	}
	ex := newExecutor(a, space)
	for _, p := range fi.Decl.Params {
		ex.locals[p.Name] = symVar{name: space + ":" + p.Name}
	}
	if fi.Class != nil {
		ex.this = symVar{name: "R"} // shared receiver: the aliased worst case
	}
	ex.execBlock(fi.Decl.Body)
	s := ex.finish(full)
	a.sums[key] = s
	return s
}

// LoopReport describes the analysis outcome for one candidate loop.
type LoopReport struct {
	Func     string
	Pos      token.Pos
	Section  string
	Parallel bool
	Reason   string   // empty when parallel
	Extent   []string // operations in the section's extent
}

// AnalyzeLoops finds the parallel loops of the program: every for loop in a
// top-level function whose operations all commute. It marks the loops in
// the AST (ForStmt.Parallel, ForStmt.Section) and returns a report per
// candidate. Loops nested inside parallel loops, and loops in functions
// that execute inside some parallel section, are not candidates (the
// generated code executes an alternating sequence of serial and parallel
// sections, §4).
func (a *Analysis) AnalyzeLoops() []LoopReport {
	var reports []LoopReport
	inExtent := map[string]bool{}
	sectionCount := map[string]int{}

	var visitLoop func(fn *ast.FuncDecl, loop *ast.ForStmt)
	visitLoop = func(fn *ast.FuncDecl, loop *ast.ForStmt) {
		rep := a.analyzeLoop(fn, loop)
		if rep.Parallel {
			sectionCount[fn.Name]++
			name := strings.ToUpper(fn.Name)
			if n := sectionCount[fn.Name]; n > 1 {
				name = fmt.Sprintf("%s#%d", name, n)
			}
			loop.Parallel = true
			loop.Section = name
			rep.Section = name
			for _, e := range rep.Extent {
				inExtent[e] = true
			}
			reports = append(reports, rep)
			return // do not descend into a parallel loop
		}
		reports = append(reports, rep)
		forEachDirectLoop(loop.Body, func(inner *ast.ForStmt) { visitLoop(fn, inner) })
	}

	for _, fn := range a.Info.Program.Funcs {
		if inExtent[fn.Name] {
			continue
		}
		forEachDirectLoop(fn.Body, func(loop *ast.ForStmt) { visitLoop(fn, loop) })
	}
	// Demote any loop marked parallel in a function that a later section
	// pulled into its extent (defensive; declaration order normally
	// prevents this).
	for _, fn := range a.Info.Program.Funcs {
		if !inExtent[fn.Name] {
			continue
		}
		forEachLoop(fn.Body, func(loop *ast.ForStmt) { loop.Parallel = false })
	}
	return reports
}

// forEachDirectLoop visits the outermost for loops in a statement tree.
func forEachDirectLoop(s ast.Stmt, f func(*ast.ForStmt)) {
	ast.Inspect(s, func(s ast.Stmt) bool {
		loop, ok := s.(*ast.ForStmt)
		if ok {
			f(loop)
		}
		return !ok
	})
}

// forEachLoop visits every for loop in a statement tree, including nested.
func forEachLoop(s ast.Stmt, f func(*ast.ForStmt)) {
	forEachDirectLoop(s, func(loop *ast.ForStmt) {
		f(loop)
		forEachLoop(loop.Body, f)
	})
}

func (a *Analysis) analyzeLoop(fn *ast.FuncDecl, loop *ast.ForStmt) LoopReport {
	rep := LoopReport{Func: fn.Name, Pos: loop.P}

	buildRoot := func(space string) *Summary {
		ex := newExecutor(a, space)
		ex.captured = map[string]bool{}
		for _, p := range fn.Params {
			ex.captured[p.Name] = true
		}
		collectOuterLocals(fn.Body, loop, ex.captured)
		for name := range ex.captured {
			ex.locals[name] = symVar{name: "G:" + name}
		}
		ex.locals[loop.Var] = symVar{name: space + ":" + loop.Var}
		ex.execBlock(loop.Body)
		return ex.finish(fmt.Sprintf("%s loop at %s", fn.Name, loop.P))
	}
	rootA := buildRoot("A")
	rootB := buildRoot("B")
	if len(rootA.Blockers) > 0 {
		rep.Reason = rootA.Blockers[0]
		return rep
	}

	// The extent: every operation invocable from the loop body.
	var roots []string
	for inv := range rootA.Invokes {
		roots = append(roots, inv)
	}
	sort.Strings(roots)
	extent := a.CG.Reachable(roots...)
	rep.Extent = extent

	// Blockers anywhere in the extent (I/O, array stores are fine — they
	// are modeled as $elem updates; returns inside methods are fine).
	for _, e := range extent {
		s := a.Summary("A", e)
		for _, b := range s.Blockers {
			if strings.Contains(b, "print") {
				rep.Reason = fmt.Sprintf("%s: %s", e, b)
				return rep
			}
		}
	}

	// Pairwise commutativity over {root} ∪ extent.
	names := append([]string{}, extent...)
	if res := commutePair(rootA, rootB); !res.OK {
		rep.Reason = res.Reason
		return rep
	}
	for _, e := range names {
		if res := commutePair(rootA, a.Summary("B", e)); !res.OK {
			rep.Reason = res.Reason
			return rep
		}
		if res := commutePair(a.Summary("A", e), rootB); !res.OK {
			rep.Reason = res.Reason
			return rep
		}
	}
	for i := 0; i < len(names); i++ {
		for j := i; j < len(names); j++ {
			if res := commutePair(a.Summary("A", names[i]), a.Summary("B", names[j])); !res.OK {
				rep.Reason = res.Reason
				return rep
			}
		}
	}
	rep.Parallel = true
	return rep
}

// collectOuterLocals records the names of locals visible to (but declared
// outside) the loop. Conservative: every let and loop variable in the
// enclosing function that is not inside the loop itself.
func collectOuterLocals(body *ast.Block, loop *ast.ForStmt, out map[string]bool) {
	ast.Inspect(body, func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.LetStmt:
			out[s.Name] = true
		case *ast.ForStmt:
			if s == loop {
				return false
			}
			out[s.Var] = true
		}
		return true
	})
}
