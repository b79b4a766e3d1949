package main

import (
	"errors"
	"strings"
	"testing"
)

// runDFLoad runs the command in-process and returns its exit code and
// outputs.
func runDFLoad(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestBadUsageExits2: flag values no drive or demo can run with, a stray
// positional argument, an unknown flag and an unknown log format are bad
// usage, reported before anything starts or is printed. The demo-mode rows
// would start a hub and replicas if they got that far.
func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-qps", "0"},
		{"-qps", "-1"},
		{"-qps", "NaN"},
		{"-qps", "+Inf"},
		{"-qps", "2e9"},
		{"-target", "http://127.0.0.1:1", "-qps", "NaN"},
		{"-duration", "0"},
		{"-sampling", "0s"},
		{"-production", "-1s"},
		{"-replicas", "1"},
		{"-workers", "0"},
		{"-iters", "-1"},
		{"-log", "xml"},
		{"extra"},
		{"-target", "http://127.0.0.1:1", "extra"},
		{"-bogus"},
	} {
		if code, stdout, stderr := runDFLoad(args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("dfload %v: exit %d, %d bytes of stdout, stderr %q; want exit 2, no stdout and a message",
				args, code, len(stdout), stderr)
		}
	}
}

// TestSlowestRateDrivesNothing: a rate far below one request per drive is
// valid; the drive ends at its deadline without a request (before the
// ticker floor, a rate this slow overflowed the interval and panicked).
func TestSlowestRateDrivesNothing(t *testing.T) {
	code, stdout, stderr := runDFLoad("-target", "http://127.0.0.1:1", "-qps", "1e-12", "-duration", "20ms")
	if code != 0 || !strings.Contains(stdout, `"requests": 0`) {
		t.Errorf("dfload -qps 1e-12: exit %d, stdout %q, stderr %q; want exit 0 and no requests", code, stdout, stderr)
	}
}

// failWriter fails every write, as a full disk does.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestLostReportExits1: a report that cannot be written is an error.
func TestLostReportExits1(t *testing.T) {
	var errOut strings.Builder
	code := run([]string{"-target", "http://127.0.0.1:1", "-qps", "1e-12", "-duration", "10ms"}, failWriter{}, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "dfload: write report") {
		t.Errorf("dfload to a failing writer: exit %d, stderr %q; want exit 1 and the write error", code, errOut.String())
	}
}
