package main

import (
	"strings"
	"testing"

	"repro/internal/obl/analysis"
)

// TestVetAllBundledSources is the in-tree form of the CI gate: every
// shipped OBL program — the three applications, the example programs, and
// the complete-program listings of docs/obl.md — must vet clean at
// warning-or-worse severity under every synchronization policy.
func TestVetAllBundledSources(t *testing.T) {
	sources, err := collectAll("../..")
	if err != nil {
		t.Fatal(err)
	}
	// Three apps, the oblpipeline figure, and at least one doc listing.
	if len(sources) < 5 {
		t.Fatalf("only %d sources collected: %v", len(sources), names(sources))
	}
	diags, err := vetSources(sources)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Severity >= analysis.Warning {
			t.Errorf("unexpected: %s", d)
		}
	}
}

func names(sources []namedSource) []string {
	var out []string
	for _, s := range sources {
		out = append(out, s.Name)
	}
	return out
}

// TestOBLBlocks checks the markdown listing extractor: only complete
// programs (those declaring main) are vetted, fragments are skipped.
func TestOBLBlocks(t *testing.T) {
	md := "intro\n```obl\nlet x: int = 1;\n```\n" +
		"```obl\nfunc main() {\n  print 1;\n}\n```\n" +
		"```sh\ngo run ./cmd/oblc\n```\n"
	blocks := oblBlocks(md)
	if len(blocks) != 1 {
		t.Fatalf("got %d blocks, want 1: %q", len(blocks), blocks)
	}
	if !strings.Contains(blocks[0], "func main()") {
		t.Errorf("wrong block extracted: %q", blocks[0])
	}
}
