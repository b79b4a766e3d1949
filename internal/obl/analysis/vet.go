package analysis

import (
	"fmt"

	"repro/internal/obl/ast"
	"repro/internal/obl/callgraph"
	"repro/internal/obl/commute"
	"repro/internal/obl/parser"
	"repro/internal/obl/polgen"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
)

// PolicyUnit is one policy's transformed program.
type PolicyUnit struct {
	Policy syncopt.Policy
	Prog   *ast.Program
}

// Unit is an analyzable compilation of one OBL source: the checked base
// program plus every synchronization-optimized variant the compiler would
// emit — one clone per paper policy, one per distinct transform point of
// the generated policy space, and the flag-dispatch single version. The
// mutation operators may edit the variant programs between BuildUnit and
// Validate; Validate re-checks what it needs.
type Unit struct {
	// Base is the parsed, checked program with parallel loops marked; the
	// reference every variant must stay equivalent to.
	Base     *ast.Program
	BaseInfo *sema.Info
	BaseCG   *callgraph.Graph
	// Reports are the commutativity analysis results.
	Reports []commute.LoopReport
	// Policies holds the per-policy transformed clones: the paper's three
	// in AllPolicies order, then the generated space's distinct transform
	// points under their polgen spec names.
	Policies []*PolicyUnit
	// Flagged is the flag-dispatch single version; Flags records which
	// conditional sites each policy enables.
	Flagged *ast.Program
	Flags   *syncopt.FlaggedInfo
}

// PolicyProg returns the transformed program of one policy.
func (u *Unit) PolicyProg(p syncopt.Policy) *ast.Program {
	for _, pu := range u.Policies {
		if pu.Policy == p {
			return pu.Prog
		}
	}
	return nil
}

// BuildUnit runs the compiler front half (parse, check, commutativity
// analysis, synchronization optimization under every policy) and returns
// the analyzable unit. Source-level problems come back as diagnostics with
// a nil unit; err reports internal pipeline failures only.
func BuildUnit(src string) (*Unit, []Diagnostic, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, FromError(err, CodeParse), nil
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, FromError(err, CodeSema), nil
	}
	cg := callgraph.Build(info)
	u := &Unit{Base: prog, BaseInfo: info, BaseCG: cg}
	u.Reports = commute.New(info, cg).AnalyzeLoops()

	// One rewritten clone per paper policy, then one per distinct
	// synchronization parameter point of the generated policy space. Chunked
	// scheduling variants share a transform (Chunk changes codegen, not the
	// placed regions), so each (Coarsen, Lift) group is validated once under
	// its first spec's name.
	add := func(name string, params syncopt.Params) error {
		clone, err := syncopt.Rewrite(prog, params)
		if err != nil {
			return fmt.Errorf("analysis: %s: %w", name, err)
		}
		u.Policies = append(u.Policies, &PolicyUnit{Policy: syncopt.Policy(name), Prog: clone})
		return nil
	}
	for _, policy := range syncopt.AllPolicies {
		if err := add(string(policy), syncopt.ParamsFor(policy)); err != nil {
			return nil, nil, err
		}
	}
	seenParams := map[syncopt.Params]bool{}
	for _, spec := range polgen.Space() {
		params := spec.SyncParams()
		if seenParams[params] {
			continue
		}
		seenParams[params] = true
		if err := add(spec.Name(), params); err != nil {
			return nil, nil, err
		}
	}

	flagged, flags, err := syncopt.RewriteFlagged(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: flagged: %w", err)
	}
	u.Flagged = flagged
	u.Flags = flags
	return u, nil, nil
}

// Validate runs every checker over the unit and returns the sorted,
// deduplicated findings:
//
//   - one must-lockset walk of each policy clone and of each policy's view
//     of the flag-dispatch program, yielding lock-coverage translation
//     validation (OBL-E100/E101/E102) and static deadlock analysis:
//     per-version lock-order graphs with cycle detection (OBL-E104),
//   - sync-stripped equivalence of every variant against the base
//     (OBL-E103),
//   - the lint checkers on the base program (OBL-W200/W201/W202, OBL-I301),
//   - thread-local region opportunities on the Original placement
//     (OBL-I300).
func (u *Unit) Validate() []Diagnostic {
	var diags []Diagnostic

	for _, pu := range u.Policies {
		info, err := sema.Check(pu.Prog)
		if err != nil {
			for _, d := range FromError(err, CodeSema) {
				d.Policy = string(pu.Policy)
				diags = append(diags, d)
			}
			continue
		}
		diags = append(diags, checkLocks(pu.Prog, info, string(pu.Policy), nil)...)
		diags = append(diags, CheckEquivalence(pu.Prog, u.Base, string(pu.Policy))...)
		if pu.Policy == syncopt.Original {
			diags = append(diags, ReportOpportunities(pu.Prog)...)
		}
	}

	if u.Flagged != nil {
		finfo, err := sema.Check(u.Flagged)
		if err != nil {
			for _, d := range FromError(err, CodeSema) {
				d.Policy = "flagged"
				diags = append(diags, d)
			}
		} else {
			for _, policy := range syncopt.AllPolicies {
				p := policy
				active := func(sb *ast.SyncBlock) bool { return u.Flags.ActiveFor(sb.Site, p) }
				diags = append(diags, checkLocks(u.Flagged, finfo, "flagged:"+string(p), active)...)
			}
			diags = append(diags, CheckEquivalence(u.Flagged, u.Base, "flagged")...)
		}
	}

	diags = append(diags, Lint(u.BaseInfo, u.BaseCG)...)
	Sort(diags)
	return Dedup(diags)
}

// FrontendDiagnostics runs only the compiler front end (parse, semantic
// check) and returns its errors as diagnostics; nil means the source is
// well-formed. Drivers use it to report machine-readable compile errors
// without running the full analysis pipeline.
func FrontendDiagnostics(src string) []Diagnostic {
	prog, err := parser.Parse(src)
	if err != nil {
		return FromError(err, CodeParse)
	}
	if _, err := sema.Check(prog); err != nil {
		return FromError(err, CodeSema)
	}
	return nil
}

// Vet builds and validates a source in one step.
func Vet(src string) ([]Diagnostic, error) {
	u, diags, err := BuildUnit(src)
	if err != nil {
		return nil, err
	}
	if u == nil {
		return diags, nil
	}
	return u.Validate(), nil
}
