//go:build census

package interp_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/obl/vm"
	"repro/internal/simmach"
)

var updateCensus = flag.Bool("update", false, "rewrite testdata/census.golden")

const censusGolden = "testdata/census.golden"

// censusCell is one simulation of a census workload.
type censusCell struct {
	app    string
	serial bool
	opts   interp.Options
}

// censusComputeCells and censusSyncCells mirror computeCells and syncCells
// in benchmark/simwl.go (dfperf's sim-compute and sim-sync workloads) at
// their base sizes: dfperf jitters the virtual-work parameters by seed,
// which moves virtual times but not the work the engine does, so the census
// takes them unjittered.
func censusComputeCells() []censusCell {
	var out []censusCell
	for _, n := range []int64{320, 224} {
		p := map[string]int64{"nbodies": n, "listlen": 64, "interwork": 20000, "npasses": 1, "serialwork": 50000}
		out = append(out,
			censusCell{app: apps.NameBarnesHut, opts: interp.Options{Procs: 1, Policy: "aggressive", Params: p}},
			censusCell{app: apps.NameBarnesHut, opts: interp.Options{Procs: 8, Policy: "aggressive", Params: p}},
			censusCell{app: apps.NameBarnesHut, opts: interp.Options{Procs: 16, Policy: "bounded", Params: p}},
			censusCell{app: apps.NameBarnesHut, serial: true, opts: interp.Options{Params: p}},
		)
	}
	return out
}

func censusSyncCells() []censusCell {
	wp := map[string]int64{"nmol": 144, "nsteps": 1, "serialwork": 30000}
	sp := map[string]int64{"gridside": 40, "nrays": 320, "pathlen": 64, "nrounds": 1, "serialwork": 30000}
	return []censusCell{
		{app: apps.NameWater, opts: interp.Options{Procs: 8, Policy: "original", Params: wp}},
		{app: apps.NameWater, opts: interp.Options{Procs: 16, Policy: "original", Params: wp}},
		{app: apps.NameWater, opts: interp.Options{Procs: 8, Policy: "bounded", Params: wp}},
		{app: apps.NameWater, opts: interp.Options{Procs: 16, Policy: "bounded", Params: wp}},
		{app: apps.NameString, opts: interp.Options{Procs: 16, Policy: "original", Params: sp}},
		{app: apps.NameString, opts: interp.Options{Procs: 8, Policy: "original", Params: sp}},
	}
}

// censusCounts is one workload's census: the VM's and the machine's.
type censusCounts struct {
	vm  *interp.Census
	sim *simmach.Census
}

func censusReset() {
	interp.CensusReset()
	simmach.CensusReset()
}

func censusSnapshot() censusCounts {
	return censusCounts{interp.CensusSnapshot(), simmach.CensusSnapshot()}
}

func runCensusCells(t *testing.T, cells []censusCell) censusCounts {
	t.Helper()
	censusReset()
	for _, c := range cells {
		cc, err := apps.Compile(c.app)
		if err != nil {
			t.Fatal(err)
		}
		prog := cc.Parallel
		if c.serial {
			prog = cc.Serial
		}
		if _, err := interp.Run(prog, c.opts); err != nil {
			t.Fatalf("%s %+v: %v", c.app, c.opts, err)
		}
	}
	return censusSnapshot()
}

// runCensusSuite runs one cold Quick pass of the experiments dfperf's suite
// workload runs (suiteSkipped in benchmark/suitewl.go leaves the others
// out), serially on a fresh bench.Suite at processor counts 1 and 8.
func runCensusSuite(t *testing.T) censusCounts {
	t.Helper()
	skipped := map[string]bool{
		"table2": true, "figure4": true, "table3": true,
		"table7": true, "figure6": true, "table8": true, "figure7": true,
		"table6": true, "table13": true, "table14": true,
		"ablation-cutoff": true, "ablation-autotune": true,
		"ablation-flags": true, "ablation-span": true,
	}
	censusReset()
	s := bench.NewSuite(bench.SuiteConfig{Quick: true, Procs: []int{1, 8}, Parallelism: 1})
	for _, e := range bench.Experiments() {
		if skipped[e.ID] {
			continue
		}
		if _, err := e.Run(s); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	return censusSnapshot()
}

// censusSection is one workload's census under its golden title.
type censusSection struct {
	title  string
	counts censusCounts
}

// censusMemo holds the three sections once run: the golden and the fused
// opcode guard read the same counts.
var censusMemo []censusSection

// censusSections runs the three census workloads, once per test binary.
func censusSections(t *testing.T) []censusSection {
	t.Helper()
	if censusMemo == nil {
		compute, sync := censusComputeCells(), censusSyncCells()
		censusMemo = []censusSection{
			{fmt.Sprintf("sim-compute: %d cells", len(compute)), runCensusCells(t, compute)},
			{fmt.Sprintf("sim-sync: %d cells", len(sync)), runCensusCells(t, sync)},
			{"suite: one cold Quick pass at procs 1,8", runCensusSuite(t)},
		}
	}
	return censusMemo
}

// censusTopPairs bounds the adjacent pairs each workload lists, and
// censusTopFuncs the called functions.
const (
	censusTopPairs = 24
	censusTopFuncs = 8
)

// renderCensus writes one workload's counters under its title: the VM's
// and the machine's totals, every opcode dispatched, the most frequent
// adjacent pairs, and the call ledger of the most called functions (its
// calls, and the dispatches a call takes: its entry and its body's), each
// list by count and then by name.
func renderCensus(b *strings.Builder, title string, cc censusCounts) {
	c, m := cc.vm, cc.sim
	fmt.Fprintf(b, "== %s\n", title)
	fmt.Fprintf(b, "exec entries   %12d\n", c.Entries)
	fmt.Fprintf(b, "vm dispatches  %12d\n", c.Dispatches())
	fmt.Fprintf(b, "descent levels %12d\n", c.Levels)
	for _, r := range []struct {
		name string
		n    uint64
	}{
		{"dispatches", m.Dispatches}, {"still first", m.StillFirst},
		{"queue inserts", m.Inserts}, {"queue moved", m.Moved},
		{"lock grants", m.Grants}, {"released ahead", m.Ahead},
		{"late grants", m.LateGrants}, {"takeovers", m.Takeovers},
		{"barriers", m.Barriers},
	} {
		fmt.Fprintf(b, "simmach %-14s %12d\n", r.name, r.n)
	}
	type row struct {
		name string
		n    uint64
	}
	sorted := func(rows []row) []row {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].name < rows[j].name
		})
		return rows
	}
	var ops, pairs []row
	for op, n := range c.Ops {
		if n > 0 {
			ops = append(ops, row{vm.Op(op).String(), n})
		}
		for next, m := range c.Pairs[op] {
			if m > 0 {
				pairs = append(pairs, row{vm.Op(op).String() + " -> " + vm.Op(next).String(), m})
			}
		}
	}
	b.WriteString("per opcode:\n")
	for _, r := range sorted(ops) {
		fmt.Fprintf(b, "  %-40s %12d\n", r.name, r.n)
	}
	fmt.Fprintf(b, "top %d adjacent pairs:\n", censusTopPairs)
	for i, r := range sorted(pairs) {
		if i == censusTopPairs {
			break
		}
		fmt.Fprintf(b, "  %-40s %12d\n", r.name, r.n)
	}
	var calls []row
	for name, f := range c.Funcs {
		if f.Calls > 0 {
			calls = append(calls, row{name, f.Calls})
		}
	}
	fmt.Fprintf(b, "top %d called functions: calls, dispatches per call:\n", censusTopFuncs)
	for i, r := range sorted(calls) {
		if i == censusTopFuncs {
			break
		}
		fmt.Fprintf(b, "  %-40s %12d %8.2f\n", r.name, r.n, float64(c.Funcs[r.name].Dispatches)/float64(r.n))
	}
}

// TestCensusGolden pins the dispatch census of dfperf's sim-compute and
// sim-sync cells and of one cold Quick suite pass, the VM's and the
// machine's. The counts are exact: a change that moves the VM's or the
// scheduler's work shows in the golden's diff. Rewrite
// the golden with
//
//	go test -tags census -run TestCensusGolden ./internal/interp -update
func TestCensusGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range censusSections(t) {
		renderCensus(&b, s.title, s.counts)
	}
	got := b.String()
	if *updateCensus {
		if err := os.WriteFile(censusGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(censusGolden)
	if err != nil {
		t.Fatalf("missing golden (rewrite with -update): %v", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("census moved at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("census moved: golden has %d lines, got %d", len(wl), len(gl))
	}
}

// TestCensusDispatchesEveryFusedOp holds the superinstruction set to the
// census: every opcode of vm.Op's fused block (after the inline-expansion
// opcodes, before the sync opcodes) must be dispatched in at least one of
// the three sections. A fused group is a second copy of the plain slots it
// covers, so one that no workload runs is deleted, and a new one lands
// only with the traffic that dispatches it.
func TestCensusDispatchesEveryFusedOp(t *testing.T) {
	var unused []string
	for op := vm.OpIRetVoid + 1; op < vm.OpSyncStart; op++ {
		var n uint64
		for _, s := range censusSections(t) {
			n += s.counts.vm.Ops[op]
		}
		if n == 0 {
			unused = append(unused, op.String())
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d fused opcodes are dispatched in no census section: %s",
			len(unused), strings.Join(unused, ", "))
	}
}
