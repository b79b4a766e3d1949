// Command oblrun executes a compiled OBL program on the simulated
// multiprocessor, with a static synchronization policy or with dynamic
// feedback, and reports the measurements of §4.3/§6.
//
// Usage:
//
//	oblrun [flags] file.obl
//	oblrun [flags] -app barneshut|water|string
//
// Examples:
//
//	oblrun -app water -procs 8 -policy dynamic -sampling 10ms -production 10s
//	oblrun -app barneshut -procs 16 -policy aggressive -param nbodies=4096
//
// Exit codes, as oblc's: 0 success; 1 a compile error, a run that fails
// (a runtime error in the program) or a trace that cannot be written; 2
// bad usage, reported before anything runs: an unknown -app or -policy, a
// -procs outside [1, 256], a -sampling or -production that is not
// positive and an unreadable source file before anything is compiled, and
// a -param naming a parameter the program does not declare right after.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obl/ir"
	"repro/internal/simmach"
	"repro/oblc"
)

type paramList map[string]int64

func (p paramList) String() string { return "" }
func (p paramList) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", v)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return err
	}
	p[name] = n
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oblrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "run a bundled application (barneshut, water, string)")
	procs := fs.Int("procs", 8, "number of simulated processors, 1 to 256 (see simmach.Config.Procs)")
	policy := fs.String("policy", "dynamic", "original, bounded, aggressive, dynamic, or serial")
	flagged := fs.Bool("flagged", false, "run the flag-dispatch single-version build (§4.2) instead of the multi-version build")
	sampling := fs.Duration("sampling", 10*time.Millisecond, "target sampling interval (virtual)")
	production := fs.Duration("production", 100*time.Second, "target production interval (virtual)")
	cutoff := fs.Bool("cutoff", false, "enable early cut-off and policy ordering (§4.5)")
	span := fs.Bool("span", false, "let intervals span section executions (§4.4)")
	verbose := fs.Bool("v", false, "print per-section samples")
	tracePath := fs.String("trace", "", "write every synchronization event as CSV to this file")
	compare := fs.Bool("compare", false, "run serial, every policy, dynamic feedback and the flagged build; print a comparison table")
	params := paramList{}
	fs.Var(params, "param", "override a program parameter, name=value (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: oblrun [flags] file.obl | oblrun [flags] -app name")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "oblrun:", err)
		return code
	}
	if p := *policy; p != interp.PolicyDynamic && p != "serial" && !slices.Contains(oblc.Policies(), p) {
		return fail(2, fmt.Errorf("unknown policy %q (want original, bounded, aggressive, dynamic or serial)", p))
	}
	if *procs < 1 || *procs > simmach.MaxExercisedProcs {
		return fail(2, fmt.Errorf("-procs %d outside [1, %d]", *procs, simmach.MaxExercisedProcs))
	}
	if *sampling <= 0 || *production <= 0 {
		return fail(2, fmt.Errorf("-sampling %v and -production %v must be positive", *sampling, *production))
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
		return fail(1, err)
	}
	// interp.Run ignores an override the program does not declare: a typo
	// would run the default size and exit 0.
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if _, ok := c.Parallel.Params[name]; !ok {
			return fail(2, fmt.Errorf("-param %s: the program declares no such parameter (have %v)", name, c.Parallel.ParamNames))
		}
	}
	if *compare {
		if err := runComparison(stdout, c, *procs, params, simmach.Time(*sampling), simmach.Time(*production)); err != nil {
			return fail(1, err)
		}
		return 0
	}
	prog := c.Parallel
	if *flagged {
		prog = c.Flagged
	}
	opts := interp.Options{
		Procs:            *procs,
		Policy:           *policy,
		TargetSampling:   simmach.Time(*sampling),
		TargetProduction: simmach.Time(*production),
		EarlyCutoff:      *cutoff,
		OrderByHistory:   *cutoff,
		SpanExecutions:   *span,
		Params:           params,
	}
	if *policy == "serial" {
		prog = c.Serial
		opts.Policy = ""
		opts.Procs = 1
	}
	var traceFile *os.File
	var trace *bufio.Writer
	if *tracePath != "" {
		if traceFile, err = os.Create(*tracePath); err != nil {
			return fail(1, err)
		}
		trace = bufio.NewWriter(traceFile)
		fmt.Fprintln(trace, "time_ns,proc,event,lock")
		opts.Trace = func(ev simmach.TraceEvent) {
			fmt.Fprintf(trace, "%d,%d,%s,%s\n", int64(ev.Time), ev.Proc, ev.Kind, ev.Lock)
		}
	}
	res, err := interp.Run(prog, opts)
	if traceFile != nil {
		// The bufio.Writer keeps its first write error and returns it from
		// Flush, so a failed event write is reported here too.
		terr := trace.Flush()
		if cerr := traceFile.Close(); terr == nil {
			terr = cerr
		}
		if err == nil && terr != nil {
			err = fmt.Errorf("trace: %w", terr)
		}
	}
	if err != nil {
		return fail(1, err)
	}
	for _, line := range res.Output {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "-- execution time: %v (virtual), %d scheduler steps\n", res.Time, res.Steps)
	fmt.Fprintf(stdout, "-- acquire/release pairs: %d, failed acquires: %d\n",
		res.Counters.Acquires, res.Counters.FailedAcquires)
	fmt.Fprintf(stdout, "-- locking overhead: %v, waiting overhead: %v\n",
		res.Counters.LockTime, res.Counters.WaitTime)
	for _, sec := range res.Sections {
		fmt.Fprintf(stdout, "-- section %s: %d executions, %d iterations, versions %v\n",
			sec.Name, len(sec.Executions), sec.Iterations, sec.VersionLabels)
		if *verbose {
			for _, smp := range sec.Samples {
				fmt.Fprintf(stdout, "   %-10s %-22s [%v .. %v] overhead %.4f (lock %.4f, wait %.4f)\n",
					smp.Kind, smp.Label, smp.Start, smp.End, smp.Overhead, smp.LockOver, smp.WaitOver)
			}
		}
	}
	return 0
}

// runComparison executes every build and policy at the given processor
// count and prints one row per configuration.
func runComparison(stdout io.Writer, c *oblc.Compiled, procs int, params map[string]int64, sampling, production simmach.Time) error {
	fmt.Fprintf(stdout, "%-22s %-12s %-14s %-14s %-12s\n", "configuration", "time", "acquire pairs", "waiting", "result[0]")
	row := func(name string, prog *ir.Program, opts interp.Options) error {
		opts.Params = params
		res, err := interp.Run(prog, opts)
		if err != nil {
			return err
		}
		out := ""
		if len(res.Output) > 0 {
			out = res.Output[0]
		}
		fmt.Fprintf(stdout, "%-22s %-12v %-14d %-14v %-12s\n",
			name, res.Time, res.Counters.Acquires, res.Counters.WaitTime, out)
		return nil
	}
	dynamic := interp.Options{
		Procs: procs, Policy: interp.PolicyDynamic,
		TargetSampling: sampling, TargetProduction: production,
	}
	if err := row("serial", c.Serial, interp.Options{Procs: 1}); err != nil {
		return err
	}
	for _, build := range []struct {
		prefix string
		prog   *ir.Program
	}{{"", c.Parallel}, {"flagged/", c.Flagged}} {
		for _, policy := range oblc.Policies() {
			if err := row(build.prefix+policy, build.prog, interp.Options{Procs: procs, Policy: policy}); err != nil {
				return err
			}
		}
		if err := row(build.prefix+"dynamic", build.prog, dynamic); err != nil {
			return err
		}
	}
	return nil
}
