package main

import (
	"strings"
	"testing"
	"time"
)

// runDFServed runs the command in-process on a loopback port the kernel
// picks and returns its exit code and outputs. A run that is still going
// after a few seconds has started serving, which none of these cases may
// do: the test fails instead of waiting for a signal.
func runDFServed(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	done := make(chan int, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errOut) }()
	select {
	case code = <-done:
		return code, out.String(), errOut.String()
	case <-time.After(10 * time.Second):
		t.Fatalf("dfserved %v did not exit: it started serving", args)
		return 0, "", ""
	}
}

// TestBadUsageExits2: a bad flag is reported with exit 2 before anything
// listens.
func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"extra"},
		{"-sampling", "0s"},
		{"-sampling", "-5ms"},
		{"-production", "0s"},
		{"-production", "-2s"},
		{"-workers", "-1"},
		{"-max-concurrent", "-1"},
		{"-log", "xml"},
		{"-controller", "bogus"},
		{"-tenant", "t"},
	} {
		code, stdout, stderr := runDFServed(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("dfserved %v: exit %d, stdout %q, stderr %q; want exit 2, no output and a message", args, code, stdout, stderr)
		}
	}
}

// TestVersionExits0 prints the build version to stdout and exits without
// listening.
func TestVersionExits0(t *testing.T) {
	code, stdout, _ := runDFServed(t, "-version")
	if code != 0 || !strings.HasPrefix(stdout, "dfserved ") {
		t.Errorf("exit %d, stdout %q; want exit 0 and the version line", code, stdout)
	}
}
