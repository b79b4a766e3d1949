// Command oblc compiles OBL programs and reports what the paper's compiler
// would: the commutativity analysis results (which loops parallelize and
// why the others do not), the per-policy transformed code (the Figure 1 →
// Figure 2 view), the generated IR, and the Table 1 code-size accounting.
//
// Usage:
//
//	oblc [flags] file.obl
//	oblc [flags] -app barneshut|water|string
//	oblc vet [-json] [-sarif report.sarif] file.obl... | -app name | -all
//
// Flags select the outputs: -analysis, -policy
// original|bounded|aggressive|flagged, -ir, -sizes, -sections, -effects.
// With no output flags, -analysis and -sections are printed. -json reports
// front-end diagnostics as JSON on stdout instead of prose on stderr.
//
// The vet subcommand runs the static safety analyzer (package
// internal/obl/analysis) over one or more programs under every
// synchronization policy — the paper's three and every distinct transform
// point of the generated policy space (internal/obl/polgen): lock-coverage
// translation validation, static deadlock analysis (lock-order cycles,
// OBL-E104), sync-stripped equivalence checking, and the lint checkers.
// -all covers the bundled applications, examples/*.obl, and the
// complete-program listings of docs/obl.md — the CI gate.
//
// Exit codes, for both modes: 0 success (vet: no warning-or-worse
// diagnostics), 1 diagnostics found (compile errors, or vet findings at
// warning or error severity) or output that could not be written, 2 usage
// or internal errors. An unknown -policy or -app, or a source file that
// cannot be read, is bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/obl/analysis"
	"repro/internal/obl/ast"
	"repro/internal/obl/ir"
	"repro/internal/obl/syncopt"
	"repro/oblc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code: 0, 1 for compile errors (vet: findings) or output that could
// not be written, 2 for bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	out := &errWriter{w: stdout}
	var code int
	if len(args) > 0 && args[0] == "vet" {
		code = runVet(args[1:], out, stderr)
	} else {
		code = runCompile(args, out, stderr)
	}
	if out.err != nil && code == 0 {
		// A mode that failed has reported its own error already.
		fmt.Fprintln(stderr, "oblc: write output:", out.err)
		return 1
	}
	return code
}

// errWriter remembers the first error of the writer it wraps and fails
// every write after it, so that output lost on any path is caught.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// runCompile is the compile mode of run.
func runCompile(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oblc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "compile a bundled application (barneshut, water, string)")
	showAnalysis := fs.Bool("analysis", false, "print commutativity analysis results")
	policy := fs.String("policy", "", "print the program transformed under a policy (original, bounded, aggressive, flagged)")
	showIR := fs.Bool("ir", false, "print the generated IR of the multi-version program")
	showSizes := fs.Bool("sizes", false, "print the Table 1 code-size accounting")
	showSections := fs.Bool("sections", false, "print the parallel sections and their versions")
	showEffects := fs.Bool("effects", false, "print per-operation effect summaries (commutativity evidence)")
	asJSON := fs.Bool("json", false, "report front-end diagnostics as JSON on stdout")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: oblc [flags] file.obl | oblc [flags] -app name")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "oblc:", err)
		return code
	}
	if *policy != "" && *policy != "flagged" && !slices.Contains(syncopt.AllPolicies, syncopt.Policy(*policy)) {
		return fail(2, fmt.Errorf("unknown policy %q (want original, bounded, aggressive or flagged)", *policy))
	}

	var src string
	switch {
	case *app != "":
		var err error
		src, err = apps.Source(*app)
		if err != nil {
			return fail(2, err)
		}
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(2, err)
		}
		src = string(data)
	default:
		fs.Usage()
		return 2
	}

	c, err := oblc.Compile(src)
	if err != nil {
		if *asJSON {
			diags := analysis.FrontendDiagnostics(src)
			if len(diags) == 0 {
				// The pipeline failed past the front end; surface the raw error.
				return fail(1, err)
			}
			if jerr := analysis.RenderJSON(stdout, diags); jerr != nil {
				return fail(1, jerr)
			}
			return 1
		}
		return fail(1, err)
	}
	anything := *showAnalysis || *policy != "" || *showIR || *showSizes || *showSections || *showEffects
	if !anything {
		*showAnalysis = true
		*showSections = true
	}

	if *showEffects {
		text, err := oblc.EffectSummaries(src)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout, "== operation effect summaries ==")
		fmt.Fprintln(stdout, text)
	}
	if *showAnalysis {
		fmt.Fprintln(stdout, "== commutativity analysis ==")
		for _, rep := range c.Reports {
			if rep.Parallel {
				fmt.Fprintf(stdout, "  %s: loop at %s PARALLEL as section %s (extent: %s)\n",
					rep.Func, rep.Pos, rep.Section, strings.Join(rep.Extent, ", "))
			} else {
				fmt.Fprintf(stdout, "  %s: loop at %s serial: %s\n", rep.Func, rep.Pos, rep.Reason)
			}
		}
	}
	if *showSections {
		fmt.Fprintln(stdout, "== parallel sections ==")
		for _, sec := range c.Parallel.Sections {
			fmt.Fprintf(stdout, "  %s (%d captured values):\n", sec.Name, sec.NCaptured)
			for i, v := range sec.Versions {
				fmt.Fprintf(stdout, "    version %d [%s] -> %s (%d bytes)\n",
					i, v.Label(), c.Parallel.Funcs[v.FuncID].Name,
					c.Parallel.Funcs[v.FuncID].CodeBytes())
			}
		}
	}
	if *policy != "" {
		var prog *ast.Program
		if *policy == "flagged" {
			prog = c.FlaggedAST
		} else {
			prog = c.PolicyPrograms[syncopt.Policy(*policy)]
		}
		fmt.Fprintf(stdout, "== program under the %s policy ==\n", *policy)
		fmt.Fprintln(stdout, ast.Print(prog))
	}
	if *showIR {
		fmt.Fprintln(stdout, "== multi-version IR ==")
		for _, f := range c.Parallel.Funcs {
			fmt.Fprintln(stdout, ir.Disasm(f))
		}
	}
	if *showSizes {
		sz := c.Sizes()
		fmt.Fprintln(stdout, "== code sizes (bytes) ==")
		fmt.Fprintf(stdout, "  serial:     %d\n", sz.Serial)
		for _, p := range oblc.Policies() {
			fmt.Fprintf(stdout, "  %-10s  %d\n", p+":", sz.PerPolicy[p])
		}
		fmt.Fprintf(stdout, "  dynamic:    %d\n", sz.Dynamic)
		flagBytes := 0
		for _, f := range c.Flagged.Funcs {
			flagBytes += f.CodeBytes()
		}
		fmt.Fprintf(stdout, "  flagged:    %d (%d conditional sites)\n", flagBytes, c.FlaggedSites)
	}
	return 0
}
