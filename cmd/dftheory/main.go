// Command dftheory evaluates the §5 worst-case analysis: for a given
// effective sampling interval S, number of policies N, overhead decay rate
// λ and performance bound δ, it reports whether a production interval can
// guarantee the bound, the feasible interval range (eq. 7), and the optimal
// production interval P_opt (eq. 9).
//
// With no flags it uses the paper's running example (S=1, N=2, λ=0.065,
// δ=0.5), for which P_opt ≈ 7.25.
//
// Exit codes: 0 success, 1 when the analysis fails or the output cannot be
// written, 2 for bad usage: an unknown flag, a positional argument, or a
// value the analysis rejects (-S, -N, -lambda, -delta, and -step with
// -series). Everything is computed before anything is printed.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/theory"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dftheory", flag.ContinueOnError)
	fs.SetOutput(stderr)
	s := fs.Float64("S", theory.Figure3Params.S, "effective sampling interval")
	n := fs.Int("N", theory.Figure3Params.N, "number of policies")
	lambda := fs.Float64("lambda", theory.Figure3Params.Lambda, "overhead decay rate")
	delta := fs.Float64("delta", theory.Figure3Delta, "performance bound δ")
	series := fs.Bool("series", false, "print the Figure 3 constraint series")
	pmax := fs.Float64("pmax", 30, "series upper bound for P")
	step := fs.Float64("step", 0.5, "series step")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "dftheory:", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	// FeasibleRegion validates S, N, lambda and delta: any error but
	// infeasibility is a rejected flag value.
	p := theory.Params{S: *s, N: *n, Lambda: *lambda}
	lo, hi, ferr := p.FeasibleRegion(*delta)
	if ferr != nil && !errors.Is(ferr, theory.ErrInfeasible) {
		return fail(2, ferr)
	}
	var pts []theory.RegionPoint
	if *series {
		var err error
		if pts, err = p.Figure3Series(*delta, 0, *pmax, *step); err != nil {
			return fail(2, err)
		}
	}
	popt, err := p.POpt()
	if err != nil {
		return fail(1, err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "S=%g N=%d lambda=%g delta=%g\n", p.S, p.N, p.Lambda, *delta)
	fmt.Fprintf(&b, "P_opt = %.4f (eq. 9; minimizes the worst-case mean work deficit)\n", popt)
	fmt.Fprintf(&b, "mean deficit at P_opt = %.4f work units per unit time (eq. 8)\n", p.MeanDeficit(popt))
	if min, err := p.MinimalDelta(); err == nil {
		fmt.Fprintf(&b, "smallest achievable bound: delta > %.4f\n", min)
	}
	if ferr != nil {
		fmt.Fprintf(&b, "no production interval satisfies the δ=%g bound: the overheads may change too fast (λ too large) relative to the sampling cost S·N\n", *delta)
	} else {
		fmt.Fprintf(&b, "feasible production intervals for δ=%g: [%.4f, %.4f] (eq. 7)\n", *delta, lo, hi)
	}
	if *series {
		fmt.Fprintln(&b, "P, constraint LHS, bound RHS, feasible")
		for _, pt := range pts {
			fmt.Fprintf(&b, "%8.3f %12.5f %12.5f %v\n", pt.P, pt.LHS, pt.RHS, pt.Feasible)
		}
	}
	if _, err := stdout.Write(b.Bytes()); err != nil {
		return fail(1, fmt.Errorf("write output: %w", err))
	}
	return 0
}
