package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// dfbench runs the command in-process and returns its exit code and streams.
func dfbench(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestDocumentIsAPureFunctionOfTheSelection writes the artifact for one
// selection — experiments and every tier — serially and at parallelism 4:
// the two files must be byte-identical, and no key anywhere in the document
// may name a host time, a date or a host description.
func TestDocumentIsAPureFunctionOfTheSelection(t *testing.T) {
	dir := t.TempDir()
	selection := []string{"table1", "eq9", "ablation-span"}
	for _, tier := range bench.Tiers() {
		selection = append(selection, tier.ID)
	}
	var docs [][]byte
	for _, p := range []string{"1", "4"} {
		path := filepath.Join(dir, "suite-p"+p+".json")
		code, _, stderr := dfbench("-quick", "-run", strings.Join(selection, ","), "-p", p, "-json", path)
		if code != 0 {
			t.Fatalf("-p %s: exit %d: %s", p, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("the -p 1 and -p 4 documents differ")
	}

	var doc any
	if err := json.Unmarshal(docs[0], &doc); err != nil {
		t.Fatal(err)
	}
	hostKey := regexp.MustCompile(`wall|speedup|generated_at|host_cpus`)
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if hostKey.MatchString(k) {
					t.Errorf("document carries host-dependent key %q", k)
				}
				walk(child)
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(doc)
	if exps := doc.(map[string]any)["experiments"].([]any); len(exps) != len(selection) {
		t.Errorf("document has %d experiments, want %d", len(exps), len(selection))
	}
}

func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-speedup"}, {"-cache-timing"}, {"-engine-timing"}, {"-scaling", "1,2"}, {"-cpuprofile", "p.out"},
		{"-perturb", "all"}, {"-cache-mem", "8"},
		{"-sample"}, {"-sample-validate"}, {"-policies"}, {"-policies-validate"},
		{"-run", "none"}, {"-run", "table1,nope"}, {"-run", "policies"}, {"-run", "sampling"},
		{"-procs", "0"}, {"-procs", "4,16"}, {"-procs", "16,8"}, {"-procs", "1,8,8"},
		{"-controller", "greedy"},
	} {
		if code, stdout, _ := dfbench(args...); code != 2 || stdout != "" {
			t.Errorf("dfbench %v: exit %d with %d bytes of stdout, want exit 2 and none", args, code, len(stdout))
		}
	}
}

// TestFailedTierGatesAfterWritingTheDocument forces the policies-search
// tier to miss a claim: dfbench must exit 1 through failed_checks, and only after
// the JSON document recording the miss is on disk.
func TestFailedTierGatesAfterWritingTheDocument(t *testing.T) {
	defer func(orig func(string) (bench.Experiment, bool)) { experimentByID = orig }(experimentByID)
	experimentByID = func(id string) (bench.Experiment, bool) {
		return bench.Experiment{ID: id, Run: func(*bench.Suite) (*bench.Report, error) {
			return &bench.Report{ID: id, Checks: []bench.ShapeCheck{{Name: "representative set covers every scenario"}}}, nil
		}}, true
	}
	path := filepath.Join(t.TempDir(), "suite.json")
	code, _, stderr := dfbench("-quick", "-run", "policies-search", "-json", path)
	if code != 1 || !strings.Contains(stderr, "1 shape check(s) failed") {
		t.Errorf("exit %d, stderr %q; want exit 1 counting the failed check", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the gate exited before the document was written: %v", err)
	}
	var doc struct {
		FailedChecks int `json:"failed_checks"`
		Experiments  []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.FailedChecks != 1 || len(doc.Experiments) != 1 || doc.Experiments[0].ID != "policies-search" {
		t.Errorf("document does not record the failed tier: %s", data)
	}
}

func TestListShowsExperimentsAndTiers(t *testing.T) {
	code, stdout, _ := dfbench("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"table1", "adapt-skew", "policies-search", "policies-duels"} {
		if !regexp.MustCompile(`(?m)^` + id + `\s`).MatchString(stdout) {
			t.Errorf("-list does not show %q:\n%s", id, stdout)
		}
	}
}
