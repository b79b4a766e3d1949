package oblc_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obl/analysis"
	"repro/internal/obl/ast"
	"repro/internal/obl/syncopt"
)

var (
	vetOut = flag.String("vet-out", "",
		"write TestVetGolden's digests to this file instead of comparing them with testdata/vet.golden")
	vetMutantSeeds = flag.Int("vet-mutant-seeds", 60,
		"mutate the first this many generated programs in TestVetGolden (testdata/vet.golden pins 60; 300 mutates all)")
)

// TestVetGolden pins what the static analyzer reports, as one digest of
// the rendered diagnostics per case. The cases are the base unit of every
// source TestTransformGolden covers (plus the programs it leaves unpinned),
// and every mutation operator applied at every region of the Original,
// Bounded, Aggressive and flag-dispatch variants of the applications, the
// corpus and the first -vet-mutant-seeds generated programs. A change to
// the analyzer that is meant to keep its findings must leave
// testdata/vet.golden byte-identical.
func TestVetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("vets 300+ programs and thousands of mutants under 21 policies")
	}
	sources := goldenSources(t)
	lines := make([][]string, len(sources))
	errs := make([]error, len(sources))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := sources[i]
				var seed int
				if _, err := fmt.Sscanf(s.name, "gen/seed%d", &seed); err != nil {
					seed = 0 // not a generated program: always mutated
				}
				lines[i], errs[i] = vetCases(s.name, s.src, seed <= *vetMutantSeeds)
			}
		}()
	}
	for i := range sources {
		next <- i
	}
	close(next)
	wg.Wait()

	var got strings.Builder
	mutants := 0
	for i, ls := range lines {
		if errs[i] != nil {
			t.Fatalf("%s: %v", sources[i].name, errs[i])
		}
		mutants += len(ls) - 1
		for _, l := range ls {
			got.WriteString(l)
			got.WriteByte('\n')
		}
	}
	t.Logf("%d sources, %d mutants", len(sources), mutants)

	if *vetOut != "" {
		if err := os.WriteFile(*vetOut, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if *vetMutantSeeds != 60 {
		t.Fatal("testdata/vet.golden pins -vet-mutant-seeds 60; write other runs with -vet-out")
	}
	compareDigests(t, "testdata/vet.golden", got.String())
}

// vetCases returns the digest lines of one source: its base unit, then, if
// mutate is set, every mutant of its variants.
func vetCases(name, src string, mutate bool) ([]string, error) {
	u, diags, err := analysis.BuildUnit(src)
	if err != nil {
		return nil, err
	}
	if u == nil {
		return []string{vetDigest(name+" base", diags, nil)}, nil
	}
	out := []string{vetDigest(name+" base", u.Validate(), nil)}
	if !mutate {
		return out, nil
	}
	ops := make([]string, 0, len(analysis.Mutations))
	for op := range analysis.Mutations {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, variant := range []string{"original", "bounded", "aggressive", "flagged"} {
		slot := &u.Flagged
		if variant != "flagged" {
			for _, pu := range u.Policies {
				if pu.Policy == syncopt.Policy(variant) {
					slot = &pu.Prog
				}
			}
		}
		prog := *slot
		regions := analysis.CountRegions(prog)
		for _, op := range ops {
			for n := 0; n < regions; n++ {
				*slot = ast.CloneProgram(prog)
				err := analysis.Mutations[op](*slot, n)
				var diags []analysis.Diagnostic
				if err == nil {
					diags = u.Validate()
				}
				out = append(out, vetDigest(fmt.Sprintf("%s %s %s %d", name, variant, op, n), diags, err))
			}
		}
		*slot = prog
	}
	return out, nil
}

// vetDigest renders one case as its name and the first 64 bits of the
// SHA-256 of its rendered diagnostics, or of the mutation's refusal.
func vetDigest(name string, diags []analysis.Diagnostic, mutateErr error) string {
	h := sha256.New()
	if mutateErr != nil {
		fmt.Fprintf(h, "mutate: %v\n", mutateErr)
	} else if err := analysis.RenderText(h, diags); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s %x", name, h.Sum(nil)[:8])
}
