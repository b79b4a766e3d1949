package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFormatLeavesOutputAlone: an unknown -format is bad usage,
// reported with exit 2 before any package is analyzed and before the -o
// file is created, so an existing file keeps its bytes.
func TestUnknownFormatLeavesOutputAlone(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.sarif")
	want := []byte("an earlier report\n")
	if err := os.WriteFile(out, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-format", "xml", "-o", out, "."}, &stdout, &stderr)
	if code != 2 || stdout.String() != "" || !strings.Contains(stderr.String(), `unknown format "xml"`) {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, no output and the format named", code, stdout.String(), stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-o file is %q afterwards, want it untouched (%q)", got, want)
	}
}

// TestUnknownFlagExits2 pins the flag parser's usage error.
func TestUnknownFlagExits2(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 || stdout.String() != "" || stderr.String() == "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, no output and a message", code, stdout.String(), stderr.String())
	}
}
