package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// runDFStored runs the command in-process on a loopback port the kernel
// picks and returns its exit code and outputs. A run that is still going
// after a few seconds has started serving, which none of these cases may
// do: the test fails instead of waiting for a signal.
func runDFStored(t *testing.T, stdout io.Writer, args ...string) (code int, stderr string) {
	t.Helper()
	var errOut strings.Builder
	done := make(chan int, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, &errOut) }()
	select {
	case code = <-done:
		return code, errOut.String()
	case <-time.After(10 * time.Second):
		t.Fatalf("dfstored %v did not exit: it started serving", args)
		return 0, ""
	}
}

// TestBadUsageExits2: a bad flag or a stray argument is reported with
// exit 2 before anything listens.
func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"extra"},
		{"-data", t.TempDir(), "extra"},
		{"-log", "xml"},
	} {
		var out strings.Builder
		code, stderr := runDFStored(t, &out, args...)
		if code != 2 || out.String() != "" || stderr == "" {
			t.Errorf("dfstored %v: exit %d, stdout %q, stderr %q; want exit 2, no output and a message", args, code, out.String(), stderr)
		}
	}
}

// TestVersionExits0 prints the build version to stdout and exits without
// listening.
func TestVersionExits0(t *testing.T) {
	var out strings.Builder
	code, _ := runDFStored(t, &out, "-version")
	if code != 0 || !strings.HasPrefix(out.String(), "dfstored ") {
		t.Errorf("exit %d, stdout %q; want exit 0 and the version line", code, out.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("closed pipe") }

// TestVersionWriteFailureExits1: a -version line that cannot be written
// is a failure, not a success.
func TestVersionWriteFailureExits1(t *testing.T) {
	code, stderr := runDFStored(t, failWriter{}, "-version")
	if code != 1 || !strings.Contains(stderr, "closed pipe") {
		t.Errorf("exit %d, stderr %q; want exit 1 and the write error", code, stderr)
	}
}
