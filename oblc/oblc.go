// Package oblc is the compiler driver for OBL, the object-based language
// of this reproduction. It chains the full pipeline of the paper's
// compiler: parsing, semantic analysis, commutativity analysis (automatic
// parallelization, §2), synchronization optimization under the three
// policies (§3), lowering to the register IR with one version of each
// parallel section per policy, and deduplication of code that is identical
// across policies (§4.2).
//
// The result is a Compiled program holding both the multi-version parallel
// program (run with a static policy or with dynamic feedback by
// internal/interp) and the serial baseline program, plus the analysis
// reports and the code-size accounting of Table 1.
package oblc

import (
	"fmt"
	"strings"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/commute"
	"repro/internal/obl/ir"
	"repro/internal/obl/lower"
	"repro/internal/obl/parser"
	"repro/internal/obl/polgen"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
)

// Compiled is the output of Compile.
type Compiled struct {
	// Parallel is the multi-version program: parallel sections carry one
	// version per synchronization optimization policy (identical versions
	// merged).
	Parallel *ir.Program
	// Serial is the baseline program: no parallelization, no
	// synchronization.
	Serial *ir.Program
	// Flagged is the §4.2 single-version alternative: one body per
	// function with conditional synchronization sites; each section's
	// versions share one FuncID and differ only in their flag vectors.
	Flagged *ir.Program
	// FlaggedAST is the flag-dispatch transformed AST (for inspection).
	FlaggedAST *ast.Program
	// FlaggedSites is the number of conditional synchronization sites.
	FlaggedSites int
	// Reports are the commutativity analysis results per candidate loop.
	Reports []commute.LoopReport
	// PolicyPrograms holds the per-policy transformed ASTs (for
	// inspection and the oblc tool's Figure 1 → Figure 2 dumps),
	// including generated policies keyed by their canonical descriptor.
	PolicyPrograms map[syncopt.Policy]*ast.Program
	// GenPolicies lists the generated policy names registered beyond the
	// paper's three (CompileWithSpecs), in spec order.
	GenPolicies []string
}

// Policies lists the synchronization policy names in paper order; these
// are the keys of each section's PolicyVersion map.
func Policies() []string {
	out := make([]string, len(syncopt.AllPolicies))
	for i, p := range syncopt.AllPolicies {
		out[i] = string(p)
	}
	return out
}

// Compile runs the full pipeline on OBL source text.
func Compile(src string) (*Compiled, error) {
	return CompileWithSpecs(src, nil)
}

// CompileWithSpecs runs the full pipeline and additionally registers one
// generated policy version per polgen spec: each spec's synchronization
// transformation is applied to its own program clone, lowered into the
// multi-version program under the spec's canonical name, and its section
// versions carry the spec's scheduling chunk. Generated versions
// participate in deduplication exactly like the paper's policies, so specs
// whose code and schedule coincide share one version.
func CompileWithSpecs(src string, specs []polgen.Spec) (*Compiled, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("oblc: parse: %w", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("oblc: check: %w", err)
	}
	cg := callgraph.Build(info)
	analysis := commute.New(info, cg)
	reports := analysis.AnalyzeLoops()

	out := &Compiled{Reports: reports, PolicyPrograms: map[syncopt.Policy]*ast.Program{}}

	// Multi-version parallel program: one rewritten clone per version, the
	// paper's policies first, then the generated ones.
	type version struct {
		name   string
		params syncopt.Params
	}
	var versions []version
	for _, policy := range syncopt.AllPolicies {
		versions = append(versions, version{string(policy), syncopt.ParamsFor(policy)})
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("oblc: %w", err)
		}
		versions = append(versions, version{spec.Name(), spec.SyncParams()})
		out.GenPolicies = append(out.GenPolicies, spec.Name())
	}
	pb := lower.NewBuilder()
	for _, v := range versions {
		if _, dup := out.PolicyPrograms[syncopt.Policy(v.name)]; dup {
			return nil, fmt.Errorf("oblc: duplicate policy %q", v.name)
		}
		clone, err := syncopt.Rewrite(prog, v.params)
		if err != nil {
			return nil, fmt.Errorf("oblc: %s: %w", v.name, err)
		}
		cinfo, err := sema.Check(clone)
		if err != nil {
			return nil, fmt.Errorf("oblc: check transformed (%s): %w", v.name, err)
		}
		if err := pb.AddPolicy(cinfo, v.name); err != nil {
			return nil, fmt.Errorf("oblc: lower (%s): %w", v.name, err)
		}
		out.PolicyPrograms[syncopt.Policy(v.name)] = clone
	}
	parallel, err := pb.Finish()
	if err != nil {
		return nil, fmt.Errorf("oblc: %w", err)
	}
	// Scheduling granularity is per generated version, set before dedup so
	// versions differing only in chunk stay distinct.
	for _, spec := range specs {
		chunk := spec.Chunk
		if chunk <= 1 {
			continue // the default dynamic schedule, same as the paper policies
		}
		name := spec.Name()
		for _, sec := range parallel.Sections {
			if vi, ok := sec.PolicyVersion[name]; ok {
				sec.Versions[vi].Chunk = chunk
			}
		}
	}
	lower.Dedup(parallel)
	if err := parallel.Verify(); err != nil {
		return nil, fmt.Errorf("oblc: verify parallel: %w", err)
	}
	out.Parallel = parallel

	// Flag-dispatch single version (§4.2 alternative): one body per
	// function with conditional synchronization sites; policies are flag
	// assignments.
	flaggedAST, flagInfo, err := syncopt.RewriteFlagged(prog)
	if err != nil {
		return nil, fmt.Errorf("oblc: flagged: %w", err)
	}
	finfo, err := sema.Check(flaggedAST)
	if err != nil {
		return nil, fmt.Errorf("oblc: check flagged: %w", err)
	}
	fb := lower.NewBuilder()
	if err := fb.AddFlagged(finfo, flagInfo.NumSites); err != nil {
		return nil, fmt.Errorf("oblc: lower flagged: %w", err)
	}
	flagged, err := fb.Finish()
	if err != nil {
		return nil, fmt.Errorf("oblc: %w", err)
	}
	enabled := map[string][]bool{}
	for p, vec := range flagInfo.Enabled {
		enabled[string(p)] = vec
	}
	lower.FinalizeFlaggedSections(flagged, enabled, Policies())
	lower.Dedup(flagged)
	if err := flagged.Verify(); err != nil {
		return nil, fmt.Errorf("oblc: verify flagged: %w", err)
	}
	out.Flagged = flagged
	out.FlaggedAST = flaggedAST
	out.FlaggedSites = flagInfo.NumSites

	// Serial baseline: strip parallel marks, no synchronization.
	serialAST := ast.CloneProgram(prog)
	unmark := func(s ast.Stmt) bool {
		if loop, ok := s.(*ast.ForStmt); ok {
			loop.Parallel, loop.Section = false, ""
		}
		return true
	}
	for _, f := range serialAST.Funcs {
		ast.Inspect(f.Body, unmark)
	}
	for _, c := range serialAST.Classes {
		for _, m := range c.Methods {
			ast.Inspect(m.Body, unmark)
		}
	}
	sinfo, err := sema.Check(serialAST)
	if err != nil {
		return nil, fmt.Errorf("oblc: check serial: %w", err)
	}
	sb := lower.NewBuilder()
	if err := sb.AddSerial(sinfo); err != nil {
		return nil, fmt.Errorf("oblc: lower serial: %w", err)
	}
	serial, err := sb.Finish()
	if err != nil {
		return nil, fmt.Errorf("oblc: %w", err)
	}
	lower.Dedup(serial)
	if err := serial.Verify(); err != nil {
		return nil, fmt.Errorf("oblc: verify serial: %w", err)
	}
	out.Serial = serial
	return out, nil
}

// EffectSummaries renders the commutativity analysis's per-operation
// effect summaries (reads, update kinds, invocations) for every function
// and method, in declaration order — the evidence behind the
// parallelization decisions.
func EffectSummaries(src string) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", fmt.Errorf("oblc: parse: %w", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return "", fmt.Errorf("oblc: check: %w", err)
	}
	cg := callgraph.Build(info)
	a := commute.New(info, cg)
	var b []string
	for _, fi := range info.AllFuncs() {
		b = append(b, a.Summary("A", fi.FullName()).Describe())
	}
	return strings.Join(b, "\n"), nil
}

// CodeSizes is the Table 1 accounting for one application.
type CodeSizes struct {
	// Serial is the executable size of the serial program.
	Serial int
	// PerPolicy maps each policy to the size of a single-policy build:
	// the code reachable when only that policy's versions are used.
	PerPolicy map[string]int
	// Dynamic is the size of the multi-version program (all policies plus
	// shared code, after subgraph deduplication).
	Dynamic int
}

// Sizes computes executable code sizes in bytes.
func (c *Compiled) Sizes() CodeSizes {
	out := CodeSizes{
		Serial:    reachableBytes(c.Serial, c.Serial.MainID, nil),
		PerPolicy: map[string]int{},
	}
	all := []int{c.Parallel.MainID}
	for _, sec := range c.Parallel.Sections {
		for _, v := range sec.Versions {
			all = append(all, v.FuncID)
		}
	}
	out.Dynamic = reachableBytes(c.Parallel, c.Parallel.MainID, all)
	for _, policy := range Policies() {
		roots := []int{c.Parallel.MainID}
		for _, sec := range c.Parallel.Sections {
			if vi, ok := sec.PolicyVersion[policy]; ok {
				roots = append(roots, sec.Versions[vi].FuncID)
			}
		}
		out.PerPolicy[policy] = reachableBytes(c.Parallel, c.Parallel.MainID, roots)
	}
	return out
}

// reachableBytes sums code bytes over the functions reachable from the
// roots (or just main when roots is nil).
func reachableBytes(p *ir.Program, mainID int, roots []int) int {
	if roots == nil {
		roots = []int{mainID}
	}
	seen := map[int]bool{}
	var stack []int
	push := func(id int) {
		if !seen[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range p.Funcs[id].Code {
			if in.Op == ir.OpCall {
				push(int(in.Imm))
			}
		}
	}
	total := 0
	for id := range seen {
		total += p.Funcs[id].CodeBytes()
	}
	return total
}
