package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOBLC runs the command in-process and returns its exit code and outputs.
func runOBLC(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestBadUsageExits2: an unknown application, a source file that cannot
// be read and an unknown policy are bad usage, reported before anything is
// compiled or printed.
func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "bogus"},
		{filepath.Join(t.TempDir(), "nonexistent.obl")},
		{"-policy", "bogus", "-app", "water"},
	} {
		if code, stdout, _ := runOBLC(args...); code != 2 || stdout != "" {
			t.Errorf("oblc %v: exit %d with %d bytes of stdout, want exit 2 and none", args, code, len(stdout))
		}
	}
}

// TestCompileErrorExits1: a program the compiler rejects is a finding, not
// bad usage.
func TestCompileErrorExits1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.obl")
	if err := os.WriteFile(path, []byte("func main() { print 1 + ; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runOBLC(path); code != 1 || !strings.Contains(stderr, "oblc:") {
		t.Errorf("exit %d, stderr %q; want exit 1 with the compile error", code, stderr)
	}
}

// TestPolicyPrintsTheTransformedProgram: every policy -policy accepts
// prints its program.
func TestPolicyPrintsTheTransformedProgram(t *testing.T) {
	for _, policy := range []string{"original", "bounded", "aggressive", "flagged"} {
		code, stdout, _ := runOBLC("-policy", policy, "-app", "water")
		if want := "== program under the " + policy + " policy =="; code != 0 || !strings.Contains(stdout, want) {
			t.Errorf("oblc -policy %s -app water: exit %d, want 0 and %q", policy, code, want)
		}
	}
}
