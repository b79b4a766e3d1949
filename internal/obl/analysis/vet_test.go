package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
)

// TestBundledAppsVetClean is the shipped-program gate: every bundled
// application must produce zero error- or warning-level diagnostics under
// every policy (Info-level opportunity findings are allowed).
func TestBundledAppsVetClean(t *testing.T) {
	for _, name := range apps.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := apps.Source(name)
			if err != nil {
				t.Fatalf("source: %v", err)
			}
			diags, err := Vet(src)
			if err != nil {
				t.Fatalf("vet: %v", err)
			}
			for _, d := range diags {
				if d.Severity >= Warning {
					t.Errorf("unexpected: %s", d)
				}
			}
		})
	}
}

// TestVetReportsParseAndSemaErrors checks the error-to-diagnostic paths.
func TestVetReportsParseAndSemaErrors(t *testing.T) {
	diags, err := Vet("func main( {")
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if len(diags) == 0 || diags[0].Code != CodeParse {
		t.Fatalf("want OBL-E001, got %v", diags)
	}
	if diags[0].Pos.Line == 0 {
		t.Errorf("parse diagnostic lost its position: %s", diags[0])
	}

	diags, err = Vet("func main() { x = 1; }")
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Code == CodeSema {
			found = true
			if d.Pos.Line == 0 {
				t.Errorf("sema diagnostic lost its position: %s", d)
			}
		}
	}
	if !found {
		t.Fatalf("want OBL-E002, got %v", diags)
	}
}

// TestVetFlagsSeededRaces spot-checks the mutation operators end to end:
// eliding a region must surface OBL-E100, and the unmutated program must
// have been clean at the same severity.
func TestVetFlagsSeededRaces(t *testing.T) {
	src, err := apps.Source("water")
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	u, diags, err := BuildUnit(src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(diags) > 0 {
		t.Fatalf("unexpected build diagnostics: %v", diags)
	}
	for _, pu := range u.Policies {
		n := CountRegions(pu.Prog)
		if n == 0 {
			t.Fatalf("%s: no regions to mutate", pu.Policy)
		}
	}
	pu := u.Policies[0] // original
	if err := ElideRegion(pu.Prog, 0); err != nil {
		t.Fatalf("elide: %v", err)
	}
	out := u.Validate()
	found := false
	for _, d := range out {
		if d.Code == CodeUncoveredWrite && d.Policy == string(pu.Policy) {
			found = true
			if d.Pos.Line == 0 {
				t.Errorf("mutant diagnostic lost its position: %s", d)
			}
		}
	}
	if !found {
		t.Fatalf("elided region not flagged; got %v", out)
	}
}

// TestDiagnosticRendering exercises the text and JSON forms.
func TestDiagnosticRendering(t *testing.T) {
	var sb strings.Builder
	d := []Diagnostic{{Severity: Error, Code: CodeUncoveredWrite, Message: "m", Policy: "bounded"}}
	if err := RenderText(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[OBL-E100]") || !strings.Contains(sb.String(), "(policy bounded)") {
		t.Errorf("text render: %q", sb.String())
	}
	sb.Reset()
	if err := RenderJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Errorf("empty JSON render: %q", sb.String())
	}
	sb.Reset()
	if err := RenderSARIF(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"ruleId": "OBL-E100"`) {
		t.Errorf("sarif render: %q", sb.String())
	}
}

// TestVetFlagsMiscompiledGeneratedVersion pins the E100 gate on the
// generated policy space: eliding a region from a generated version's
// transformed program must surface OBL-E100 attributed to that version's
// spec name, proving the lock-coverage validator guards generated versions
// exactly as it guards the paper's three.
func TestVetFlagsMiscompiledGeneratedVersion(t *testing.T) {
	src, err := apps.Source("water")
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	u, diags, err := BuildUnit(src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(diags) > 0 {
		t.Fatalf("unexpected build diagnostics: %v", diags)
	}
	var gen *PolicyUnit
	for _, pu := range u.Policies {
		if strings.HasPrefix(string(pu.Policy), "g-") {
			gen = pu
			break
		}
	}
	if gen == nil {
		t.Fatal("no generated policy unit in BuildUnit output")
	}
	for _, d := range u.Validate() {
		if d.Severity >= Warning && d.Policy == string(gen.Policy) {
			t.Fatalf("generated version %s not clean before mutation: %s", gen.Policy, d)
		}
	}
	if n := CountRegions(gen.Prog); n == 0 {
		t.Fatalf("%s: no regions to mutate", gen.Policy)
	}
	if err := ElideRegion(gen.Prog, 0); err != nil {
		t.Fatalf("elide: %v", err)
	}
	found := false
	for _, d := range u.Validate() {
		if d.Code == CodeUncoveredWrite && d.Policy == string(gen.Policy) {
			found = true
		}
	}
	if !found {
		t.Fatalf("elided region in generated version %s not flagged OBL-E100", gen.Policy)
	}
}

// FuzzVet feeds Vet what `oblc vet` reads from files, seeded with the
// corpus: it must never panic, and two vets of one source must render the
// same findings (or fail the same way). Run with -fuzz=FuzzVet to explore;
// the seeds run as part of the regular test suite.
func FuzzVet(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.obl"))
	if err != nil || len(files) == 0 {
		f.Fatalf("corpus not found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		render := func() string {
			diags, err := Vet(src)
			if err != nil {
				return "vet failed: " + err.Error()
			}
			var b strings.Builder
			if err := RenderText(&b, diags); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		if first, second := render(), render(); first != second {
			t.Errorf("two vets of one source differ:\n%s--- then\n%s", first, second)
		}
	})
}
