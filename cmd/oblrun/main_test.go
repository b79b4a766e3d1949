package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOBLRun runs the command in-process and returns its exit code and
// outputs.
func runOBLRun(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// small keeps the Water runs quick.
var small = []string{"-app", "water", "-procs", "4", "-param", "nmol=16"}

// TestBadUsageExits2: an unknown application or policy, a processor count
// outside [1, 256], an interval that is not positive, a flag -compare
// would ignore and a source file that cannot be read are bad usage,
// reported before anything is compiled or printed; so is a parameter the
// program does not declare, reported before anything runs.
func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "bogus"},
		{"-app", "water", "-policy", "bogus"},
		{"-policy", "bogus", filepath.Join(t.TempDir(), "nonexistent.obl")},
		{filepath.Join(t.TempDir(), "nonexistent.obl")},
		{"-param", "nmol"},
		{"-app", "water", "-procs", "0"},
		{"-app", "water", "-procs", "-4"},
		{"-app", "water", "-procs", "257"},
		{"-app", "water", "-sampling", "-1s"},
		{"-app", "water", "-production", "0s"},
		{"-app", "water", "-param", "typo=5"},
		{"-app", "water", "-compare", "-param", "nmol=16", "-param", "typo=5"},
		{"-app", "water", "-param", "nmol=16", "-compare", "-trace", filepath.Join(t.TempDir(), "t.csv")},
		{"-app", "water", "-param", "nmol=16", "-compare", "-flagged"},
		{"-app", "water", "-param", "nmol=16", "-compare", "-policy", "dynamic"},
		{"-app", "water", "-param", "nmol=16", "-compare", "-cutoff"},
		{"-app", "water", "-param", "nmol=16", "-compare", "-span"},
		{"-app", "water", "-param", "nmol=16", "-compare", "-v"},
		{},
	} {
		if code, stdout, _ := runOBLRun(args...); code != 2 || stdout != "" {
			t.Errorf("oblrun %v: exit %d with %d bytes of stdout, want exit 2 and none", args, code, len(stdout))
		}
	}
}

// TestCompileErrorExits1: a program the compiler rejects is a failure, not
// bad usage.
func TestCompileErrorExits1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.obl")
	if err := os.WriteFile(path, []byte("func main() { print 1 + ; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runOBLRun(path); code != 1 || !strings.Contains(stderr, "oblrun:") {
		t.Errorf("exit %d, stderr %q; want exit 1 with the compile error", code, stderr)
	}
}

// TestOversizedArrayExits1: a parameter that sizes an array past the
// interpreter's bound fails the run with an interp error, not a host panic.
func TestOversizedArrayExits1(t *testing.T) {
	code, stdout, stderr := runOBLRun("-app", "water", "-param", "nmol=1000000000000000")
	if code != 1 || !strings.Contains(stderr, "oblrun: interp:") || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 with an interp error and no output", code, stdout, stderr)
	}
}

// TestTraceIsWritten: a traced run writes the CSV header and one line per
// synchronization event, and prints its results.
func TestTraceIsWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	code, stdout, stderr := runOBLRun(append(small, "-policy", "bounded", "-trace", path)...)
	if code != 0 || !strings.Contains(stdout, "-- execution time:") {
		t.Fatalf("exit %d, stderr %q; want exit 0 and the results", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] != "time_ns,proc,event,lock" || len(lines) < 2 {
		t.Errorf("trace has %d lines, starting %q; want the header and events", len(lines), lines[0])
	}
}

// TestLostTraceExits1: a trace that cannot be created or written fails the
// run; exit 0 would report a trace the file does not hold.
func TestLostTraceExits1(t *testing.T) {
	paths := []string{filepath.Join(t.TempDir(), "missing", "trace.csv")}
	if _, err := os.Stat("/dev/full"); err == nil {
		paths = append(paths, "/dev/full") // every write fails with ENOSPC
	}
	for _, path := range paths {
		code, _, stderr := runOBLRun(append(small, "-policy", "bounded", "-trace", path)...)
		if code != 1 || !strings.Contains(stderr, "oblrun:") {
			t.Errorf("-trace %s: exit %d, stderr %q; want exit 1 with the error", path, code, stderr)
		}
	}
}

// TestCompareRunsEveryConfiguration: -compare prints one row per build and
// policy.
func TestCompareRunsEveryConfiguration(t *testing.T) {
	code, stdout, stderr := runOBLRun(append(small, "-compare")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, row := range []string{"serial", "original", "bounded", "aggressive", "dynamic", "flagged/original", "flagged/dynamic"} {
		if !strings.Contains(stdout, "\n"+row+" ") {
			t.Errorf("no %q row in:\n%s", row, stdout)
		}
	}
}

// TestVerboseNamesTheEngine: -v says which engine ran the program, and why
// the reference oracle did: a program calling sqrt, which has no unboxed
// call, runs there.
func TestVerboseNamesTheEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sqrt.obl")
	src := "extern sqrt(x: float): float cost 80;\nfunc main() { print sqrt(16.0); }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		args []string
		want string
	}{
		{append(small, "-policy", "bounded", "-v"), "-- engine: vm\n"},
		{[]string{"-procs", "1", "-v", path}, "-- engine: oracle (boxed extern sqrt)\n"},
		{append(small, "-policy", "bounded", "-flagged", "-v"), "-- engine: oracle (conditional sync sites)\n"},
	} {
		code, stdout, stderr := runOBLRun(row.args...)
		if code != 0 || !strings.Contains(stdout, row.want) {
			t.Errorf("oblrun %v: exit %d, stderr %q, stdout:\n%s\nwant the line %q", row.args, code, stderr, stdout, row.want)
		}
	}
}
