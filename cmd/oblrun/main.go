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
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
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

func main() {
	app := flag.String("app", "", "run a bundled application (barneshut, water, string)")
	procs := flag.Int("procs", 8, "number of simulated processors (exercised up to 256; see simmach.Config.Procs)")
	policy := flag.String("policy", "dynamic", "original, bounded, aggressive, dynamic, or serial")
	flagged := flag.Bool("flagged", false, "run the flag-dispatch single-version build (§4.2) instead of the multi-version build")
	sampling := flag.Duration("sampling", 10*time.Millisecond, "target sampling interval (virtual)")
	production := flag.Duration("production", 100*time.Second, "target production interval (virtual)")
	cutoff := flag.Bool("cutoff", false, "enable early cut-off and policy ordering (§4.5)")
	span := flag.Bool("span", false, "let intervals span section executions (§4.4)")
	verbose := flag.Bool("v", false, "print per-section samples")
	tracePath := flag.String("trace", "", "write every synchronization event as CSV to this file")
	compare := flag.Bool("compare", false, "run serial, every policy, dynamic feedback and the flagged build; print a comparison table")
	params := paramList{}
	flag.Var(params, "param", "override a program parameter, name=value (repeatable)")
	flag.Parse()

	var src string
	switch {
	case *app != "":
		var err error
		src, err = apps.Source(*app)
		if err != nil {
			fatal(err)
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: oblrun [flags] file.obl | oblrun [flags] -app name")
		flag.PrintDefaults()
		os.Exit(2)
	}
	c, err := oblc.Compile(src)
	if err != nil {
		fatal(err)
	}
	if *compare {
		runComparison(c, *procs, params, simmach.Time(*sampling), simmach.Time(*production))
		return
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
	if *tracePath != "" {
		var err error
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer traceFile.Close()
		w := bufio.NewWriter(traceFile)
		defer w.Flush()
		fmt.Fprintln(w, "time_ns,proc,event,lock")
		opts.Trace = func(ev simmach.TraceEvent) {
			fmt.Fprintf(w, "%d,%d,%s,%s\n", int64(ev.Time), ev.Proc, ev.Kind, ev.Lock)
		}
	}
	res, err := interp.Run(prog, opts)
	if err != nil {
		fatal(err)
	}
	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Printf("-- execution time: %v (virtual), %d scheduler steps\n", res.Time, res.Steps)
	fmt.Printf("-- acquire/release pairs: %d, failed acquires: %d\n",
		res.Counters.Acquires, res.Counters.FailedAcquires)
	fmt.Printf("-- locking overhead: %v, waiting overhead: %v\n",
		res.Counters.LockTime, res.Counters.WaitTime)
	for _, sec := range res.Sections {
		fmt.Printf("-- section %s: %d executions, %d iterations, versions %v\n",
			sec.Name, len(sec.Executions), sec.Iterations, sec.VersionLabels)
		if *verbose {
			for _, smp := range sec.Samples {
				fmt.Printf("   %-10s %-22s [%v .. %v] overhead %.4f (lock %.4f, wait %.4f)\n",
					smp.Kind, smp.Label, smp.Start, smp.End, smp.Overhead, smp.LockOver, smp.WaitOver)
			}
		}
	}
}

// runComparison executes every build and policy at the given processor
// count and prints one row per configuration.
func runComparison(c *oblc.Compiled, procs int, params map[string]int64, sampling, production simmach.Time) {
	fmt.Printf("%-22s %-12s %-14s %-14s %-12s\n", "configuration", "time", "acquire pairs", "waiting", "result[0]")
	row := func(name string, prog *ir.Program, opts interp.Options) {
		opts.Params = params
		res, err := interp.Run(prog, opts)
		if err != nil {
			fatal(err)
		}
		out := ""
		if len(res.Output) > 0 {
			out = res.Output[0]
		}
		fmt.Printf("%-22s %-12v %-14d %-14v %-12s\n",
			name, res.Time, res.Counters.Acquires, res.Counters.WaitTime, out)
	}
	row("serial", c.Serial, interp.Options{Procs: 1})
	for _, policy := range oblc.Policies() {
		row(policy, c.Parallel, interp.Options{Procs: procs, Policy: policy})
	}
	row("dynamic", c.Parallel, interp.Options{
		Procs: procs, Policy: interp.PolicyDynamic,
		TargetSampling: sampling, TargetProduction: production,
	})
	for _, policy := range oblc.Policies() {
		row("flagged/"+policy, c.Flagged, interp.Options{Procs: procs, Policy: policy})
	}
	row("flagged/dynamic", c.Flagged, interp.Options{
		Procs: procs, Policy: interp.PolicyDynamic,
		TargetSampling: sampling, TargetProduction: production,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oblrun:", err)
	os.Exit(1)
}
