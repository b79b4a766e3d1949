// Package walltime forbids unannotated wall-clock time and ambient
// randomness in the repo's time-sensitive packages.
//
// The simulated machine (simmach), the interpreter and VM (interp), the
// perturbation schedules (perturb), the feedback controller (core), and
// the simulation cache (simcache) are deterministic by contract: the same
// program and options produce byte-identical results, which is what makes
// content-addressed caching, golden tests, and the differential harnesses
// sound. A single time.Now or math/rand call breaks that silently, so in
// those packages every wall-clock site is a finding.
//
// The serving tier (serve, fleet) legitimately reads the wall clock — live
// uptime, request pacing — but
// each site must say so with //dfvet:allow walltime <reason>, so a stray
// wall-clock dependency cannot creep into a measurement path unannounced.
package walltime

import (
	"go/ast"
	"go/types"
	"path"

	"repro/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "walltime",
	Doc:  "wall-clock time or ambient randomness in a deterministic or annotation-required package",
	Run:  run,
}

// deterministic names the packages under the hard determinism contract,
// by import-path base; justified names the serving-tier packages where
// wall-clock use is legal but must be annotated.
var deterministic = map[string]bool{
	"simmach":  true,
	"interp":   true,
	"perturb":  true,
	"core":     true,
	"simcache": true,
}

var justified = map[string]bool{
	"serve": true,
	"fleet": true,
}

// forbiddenTime lists the wall-clock functions of package time. Everything
// else in time (Duration arithmetic, formatting) is pure and allowed.
var forbiddenTime = map[string]bool{
	"Now":      true,
	"Since":    true,
	"Until":    true,
	"Sleep":    true,
	"After":    true,
	"Tick":     true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *lint.Pass) error {
	base := path.Base(pass.Pkg.Path())
	if !deterministic[base] && !justified[base] {
		return nil
	}
	contract := "results must not depend on wall-clock time"
	if justified[base] {
		contract = "wall-clock use here requires a justification"
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if _, isFunc := obj.(*types.Func); isFunc && forbiddenTime[obj.Name()] {
					pass.Reportf(id.Pos(),
						"time.%s in package %s: %s (annotate //dfvet:allow walltime if legitimate)",
						obj.Name(), pass.Pkg.Name(), contract)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(id.Pos(),
					"%s.%s in package %s: ambient randomness; %s (annotate //dfvet:allow walltime if legitimate)",
					obj.Pkg().Path(), obj.Name(), pass.Pkg.Name(), contract)
			}
			return true
		})
	}
	return nil
}
