package main

import (
	"errors"
	"strings"
	"testing"
)

// runDFTheory runs the command in-process and returns its exit code and
// outputs.
func runDFTheory(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestPaperExample: with no flags the command reports the paper's running
// example, and -series adds the Figure 3 constraint series.
func TestPaperExample(t *testing.T) {
	code, stdout, _ := runDFTheory()
	for _, want := range []string{"S=1 N=2 lambda=0.065 delta=0.5", "P_opt = 7.2309", "feasible production intervals for δ=0.5"} {
		if code != 0 || !strings.Contains(stdout, want) {
			t.Errorf("dftheory: exit %d, want 0 and %q in:\n%s", code, want, stdout)
		}
	}
	code, stdout, _ = runDFTheory("-series", "-pmax", "2", "-step", "1")
	if want := "P, constraint LHS, bound RHS, feasible\n"; code != 0 || !strings.Contains(stdout, want) ||
		strings.Count(stdout[strings.Index(stdout, want):], "\n") != 4 {
		t.Errorf("dftheory -series -pmax 2 -step 1: exit %d, want 0, the header and three points:\n%s", code, stdout)
	}
}

// TestInfeasibleBoundIsAnAnswer: a bound no interval meets is a result,
// not an error.
func TestInfeasibleBoundIsAnAnswer(t *testing.T) {
	if code, stdout, _ := runDFTheory("-delta", "0.01"); code != 0 || !strings.Contains(stdout, "no production interval satisfies") {
		t.Errorf("dftheory -delta 0.01: exit %d, want 0 and the infeasibility line:\n%s", code, stdout)
	}
}

// TestBadUsageExits2: values the analysis rejects, a stray positional
// argument and an unknown flag are bad usage, reported before anything is
// printed.
func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-S", "0"},
		{"-N", "0"},
		{"-lambda", "-1"},
		{"-delta", "0"},
		{"-series", "-step", "0"},
		{"extra"},
		{"-bogus"},
	} {
		if code, stdout, stderr := runDFTheory(args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("dftheory %v: exit %d, %d bytes of stdout, stderr %q; want exit 2, no stdout and a message",
				args, code, len(stdout), stderr)
		}
	}
}

// failWriter fails every write, as a full disk does.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestLostOutputExits1: output that cannot be written is an error.
func TestLostOutputExits1(t *testing.T) {
	for _, args := range [][]string{nil, {"-series"}} {
		var errOut strings.Builder
		if code := run(args, failWriter{}, &errOut); code != 1 || !strings.HasPrefix(errOut.String(), "dftheory: write") {
			t.Errorf("dftheory %v to a failing writer: exit %d, stderr %q; want exit 1 and the write error", args, code, errOut.String())
		}
	}
}
