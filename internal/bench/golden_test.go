package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interp"
)

// goldenPath is the committed render of the full quick suite. It was
// captured from the pre-rewrite event engine (container/heap scheduler,
// O(n) lock handoff and barrier scans), so it pins the simulated science
// across engine rewrites: any change to virtual times, counters, policy
// decisions, or shape-check verdicts shows up as a byte diff.
const goldenPath = "testdata/quick_suite.golden"

// TestQuickSuiteMatchesGolden renders the full quick suite serially under
// each execution engine — the production VM and the reference step
// interpreter, the only place every cell of the suite runs on the oracle —
// and compares both byte for byte against the same committed golden.
// Regenerate (only when an intentional science change is reviewed) with:
//
//	BENCH_REGEN_GOLDEN=1 go test ./internal/bench -run TestQuickSuiteMatchesGolden
func TestQuickSuiteMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full quick suite; run without -short")
	}
	if raceEnabled {
		t.Skip("quick-suite render is an order of magnitude slower under the race detector")
	}
	for _, engine := range []string{interp.EngineVM, interp.EngineInterp} {
		t.Run(engine, func(t *testing.T) {
			cfg := SuiteConfig{Quick: true, Procs: []int{1, 4, 8}, Parallelism: 1, Engine: engine}
			matchGolden(t, goldenPath, renderSuiteCfg(t, cfg), engine+" engine")
		})
	}
}

// matchGolden compares got byte for byte against the committed golden at
// path — or, with BENCH_REGEN_GOLDEN set, rewrites the golden from it.
func matchGolden(t *testing.T, path, got, gotName string) {
	t.Helper()
	if os.Getenv("BENCH_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with BENCH_REGEN_GOLDEN=1): %v", err)
	}
	diffLines(t, string(want), got, "golden", gotName)
}

// diffLines fails with the first differing line of two suite renders.
func diffLines(t *testing.T, want, got, wantName, gotName string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("render mismatch at line %d:\n  %s: %q\n  %s: %q", i+1, wantName, wl[i], gotName, gl[i])
		}
	}
	t.Fatalf("render mismatch: %s has %d lines, %s %d", wantName, len(wl), gotName, len(gl))
}
