// Package bench regenerates every table and figure of the paper's
// evaluation (§6) plus the §5 theory figure, on the simulated machine. Each
// experiment produces a Report containing the same rows or series the paper
// reports, together with shape checks: assertions that the qualitative
// claims hold (who wins, by roughly what factor, where the crossovers are),
// since absolute numbers come from a scaled-down simulated substrate.
//
// cmd/dfbench prints the reports; bench_test.go at the repository root runs
// one benchmark per experiment.
package bench

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obl/ir"
	"repro/internal/obl/polgen"
	"repro/internal/parexec"
	"repro/internal/simcache"
	"repro/internal/simmach"
	"repro/oblc"
)

// SuiteConfig configures an experiment run.
type SuiteConfig struct {
	// Quick shrinks the inputs (roughly 4× fewer operations) for fast runs.
	Quick bool
	// Procs lists the processor counts for the execution-time tables.
	// Default is the paper's: 1, 2, 4, 6, 8, 12, 16.
	Procs []int
	// Parallelism bounds the simulations in flight at once when experiments
	// fan their cells out (see Runs) or run side by side. Every simulation
	// is deterministic and memoized single-flight, so results — and
	// therefore rendered reports — are byte-identical at any parallelism.
	// Default runtime.GOMAXPROCS(0); 1 runs everything serially.
	Parallelism int
	// Cache, when non-nil, is consulted before every simulation and
	// populated after: results are addressed by interp.CacheKey, so a hit
	// is the exact record a fresh simulation would produce and the
	// rendered reports are byte-identical with or without the cache.
	Cache *simcache.Cache
	// CacheVerify re-simulates every cache hit and byte-compares the
	// fresh result against the cached record (dfbench -cache-verify),
	// turning the determinism claim into a checked invariant. A mismatch
	// is an error, not a silent fallback.
	CacheVerify bool
	// Engine is the seam the golden and engine parity tests use to run
	// every cell under interp.EngineInterp, the reference oracle, and
	// byte-compare its reports with the VM's (the default, and the only
	// engine any other caller uses). Results are identical, so the engine
	// is deliberately absent from content-addressed cache keys.
	Engine string
	// Controller selects the dynamic feedback controller for every dynamic
	// simulation (core.KindRoundRobin, the default, or core.KindUCB).
	// Unlike Engine, the controller changes measured results, so it is part
	// of the content-addressed cache key (interp.CacheKey).
	Controller string
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 2, 4, 6, 8, 12, 16}
	}
	c.Parallelism = parexec.Workers(c.Parallelism)
	return c
}

// ShapeCheck is one qualitative assertion about an experiment's outcome.
type ShapeCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Series is one curve of a figure.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Report is the outcome of one experiment. The JSON form is what
// `dfbench -json` writes: the science artifact, every byte of it virtual
// time on the simulated machine, so it must not move across PRs that do
// not change the simulated science.
type Report struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Header []string     `json:"header,omitempty"`
	Rows   [][]string   `json:"rows,omitempty"`
	XLabel string       `json:"x_label,omitempty"`
	YLabel string       `json:"y_label,omitempty"`
	Series []Series     `json:"series,omitempty"`
	Notes  []string     `json:"notes,omitempty"`
	Checks []ShapeCheck `json:"checks,omitempty"`
	// HostNotes are remarks about the host (wall-clocks). They are in
	// neither the JSON form nor Format: dfbench prints them on stderr.
	HostNotes []string `json:"-"`
}

// Failed returns the names of failed shape checks.
func (r *Report) Failed() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}

// check appends a shape check.
func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, ShapeCheck{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Format renders the report as text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteString("\n")
		}
		writeRow(r.Header)
		writeRow(dashes(widths))
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %q (%s vs %s):\n", s.Name, r.XLabel, r.YLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "  %10.4f  %10.6f\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Suite caches compiled applications and simulation runs across
// experiments, since several tables and figures share the same executions.
// The caches are concurrency-safe and single-flight: identical cells are
// simulated exactly once, and concurrent callers of the same cell block on
// and share that one execution, so experiments may fan cells out or run
// side by side (cmd/dfbench does both) without duplicating work or
// perturbing results.
type Suite struct {
	cfg      SuiteConfig
	compiled parexec.Group[string, *oblc.Compiled]
	// runs memoizes cells by content address (interp.CacheKey). The
	// suite-wide Engine is not in the address: a memo never outlives its
	// suite, and a suite has one engine.
	runs parexec.Group[string, *interp.Result]
	// sem bounds the simulations actually executing across every caller,
	// including nested fan-outs from concurrently running experiments.
	sem chan struct{}
}

// NewSuite creates a Suite.
func NewSuite(cfg SuiteConfig) *Suite {
	cfg = cfg.withDefaults()
	return &Suite{
		cfg: cfg,
		sem: make(chan struct{}, cfg.Parallelism),
	}
}

// Config returns the (defaulted) suite configuration.
func (s *Suite) Config() SuiteConfig { return s.cfg }

// App returns the compiled application, compiling on first use.
func (s *Suite) App(name string) (*oblc.Compiled, error) {
	return s.compiled.Do(name, func() (*oblc.Compiled, error) {
		return apps.Compile(name)
	})
}

// Params returns the experiment input parameters for an application,
// shrunk in Quick mode.
func (s *Suite) Params(name string) map[string]int64 {
	p := apps.BenchParams(name)
	if !s.cfg.Quick {
		return p
	}
	out := make(map[string]int64, len(p))
	for k, v := range p {
		out[k] = v
	}
	// Shrink the iteration counts but keep the per-iteration structure
	// (interaction list and path lengths), so locking-to-computation
	// ratios — and therefore the policy shapes — are preserved.
	switch name {
	case apps.NameBarnesHut:
		out["nbodies"] /= 4
	case apps.NameWater:
		out["nmol"] /= 2
	case apps.NameString:
		out["nrays"] /= 4
	}
	return out
}

// progKind selects which of an application's compiled programs a cell runs.
type progKind int

const (
	progParallel progKind = iota // the multi-version parallel program
	progSerial                   // the serial baseline
	progFlagged                  // the single-version flag-dispatch program (§4.2)
	progSpace                    // the parallel program with the generated policy space (polgen) appended
)

// RunSpec names one simulation cell: an application's program and the
// options to run it with. Nil Opts.Params means the suite's (Quick-scaled)
// parameters for the application; an empty Opts.Controller means the
// suite's.
type RunSpec struct {
	App  string
	Prog progKind
	Opts interp.Options
}

func (sp RunSpec) String() string {
	kind := [...]string{"", " serial", " flagged", " space"}[sp.Prog]
	return fmt.Sprintf("%s%s %s/%d", sp.App, kind, sp.Opts.Policy, sp.Opts.Procs)
}

// program resolves a cell's program, compiling the application on first use.
func (s *Suite) program(app string, kind progKind) (*ir.Program, error) {
	if kind == progSpace {
		c, err := s.compiled.Do(app+"+space", func() (*oblc.Compiled, error) {
			return apps.CompileWithSpecs(app, polgen.Space())
		})
		if err != nil {
			return nil, err
		}
		return c.Parallel, nil
	}
	c, err := s.App(app)
	if err != nil {
		return nil, err
	}
	switch kind {
	case progSerial:
		return c.Serial, nil
	case progFlagged:
		return c.Flagged, nil
	}
	return c.Parallel, nil
}

// Run resolves the cell of an application's parallel program.
func (s *Suite) Run(app string, opts interp.Options) (*interp.Result, error) {
	return s.cell(RunSpec{App: app, Opts: opts})
}

// Runs resolves every spec with up to Parallelism simulations in flight and
// returns the results in spec order, or the lowest-indexed error.
func (s *Suite) Runs(specs []RunSpec) ([]*interp.Result, error) {
	return parexec.Map(s.cfg.Parallelism, specs, func(_ int, sp RunSpec) (*interp.Result, error) {
		return s.cell(sp)
	})
}

// resolve returns a cell's program, its fully-resolved options and its
// content address (interp.CacheKey).
func (s *Suite) resolve(sp RunSpec) (*ir.Program, interp.Options, string, error) {
	prog, err := s.program(sp.App, sp.Prog)
	if err != nil {
		return nil, interp.Options{}, "", err
	}
	opts := sp.Opts
	if opts.Params == nil {
		opts.Params = s.Params(sp.App)
	}
	if opts.Controller == "" {
		opts.Controller = s.cfg.Controller
	}
	key, ok := interp.CacheKey(prog, opts)
	if !ok {
		return nil, interp.Options{}, "", errors.New("options are not content-addressable")
	}
	return prog, opts, key, nil
}

// cell resolves one cell. Every exact simulation in the package goes
// through it (the sampling tier's estimates are not cells: interp.CacheKey
// refuses them): the memo single-flights on the cell's content address, a
// memo miss consults the simulation cache, and a cache miss simulates. It
// is safe for concurrent use; identical cells are simulated exactly once.
func (s *Suite) cell(sp RunSpec) (*interp.Result, error) {
	prog, opts, key, err := s.resolve(sp)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", sp, err)
	}
	res, err := s.runs.Do(key, func() (*interp.Result, error) { return s.simulate(prog, opts, key) })
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", sp, err)
	}
	return res, nil
}

// simulate resolves a memo miss: from the simulation cache when one is
// configured (re-simulating and byte-comparing a hit when CacheVerify is
// set), otherwise by simulating and populating it.
func (s *Suite) simulate(prog *ir.Program, opts interp.Options, key string) (*interp.Result, error) {
	cache := s.cfg.Cache
	if cache == nil {
		return s.execute(prog, opts)
	}
	cached, hit := cache.Get(key)
	if hit && !s.cfg.CacheVerify {
		return cached, nil
	}
	fresh, err := s.execute(prog, opts)
	if err != nil {
		return nil, err
	}
	if !hit {
		cache.Put(key, fresh)
		return fresh, nil
	}
	got, err := simcache.EncodeResult(cached)
	if err != nil {
		return nil, err
	}
	want, err := simcache.EncodeResult(fresh)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("cached result differs from fresh simulation (key %s)", key)
	}
	return cached, nil
}

// execute simulates under the suite's engine with up to Parallelism
// simulations in flight.
func (s *Suite) execute(prog *ir.Program, opts interp.Options) (*interp.Result, error) {
	defer s.slot()()
	opts.Engine = s.cfg.Engine
	return interp.Run(prog, opts)
}

// slot takes one of the suite's Parallelism simulation slots and returns
// its release. A serial suite has nothing in flight to bound, so it skips
// the semaphore rather than paying a channel round-trip per simulation.
func (s *Suite) slot() (release func()) {
	if cap(s.sem) <= 1 {
		return func() {}
	}
	s.sem <- struct{}{}
	return func() { <-s.sem }
}

// section finds a section's stats in a result.
func section(res *interp.Result, name string) *interp.SectionStats {
	for _, sec := range res.Sections {
		if sec.Name == name {
			return sec
		}
	}
	return nil
}

// Experiment is one table or figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite) (*Report, error)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Executable code sizes (bytes)", Table1},
		{"table2", "Execution times for Barnes-Hut (virtual seconds)", Table2},
		{"figure4", "Speedups for Barnes-Hut", Figure4},
		{"table3", "Locking overhead for Barnes-Hut", Table3},
		{"figure5", "Sampled overhead for the Barnes-Hut FORCES section (8 procs)", Figure5},
		{"table4", "Statistics for the Barnes-Hut FORCES section", Table4},
		{"table5", "Mean minimum effective sampling intervals, FORCES (8 procs)", Table5},
		{"table6", "Mean times for varying intervals, FORCES (8 procs)", Table6},
		{"table7", "Execution times for Water (virtual seconds)", Table7},
		{"figure6", "Speedups for Water", Figure6},
		{"table8", "Locking overhead for Water", Table8},
		{"figure7", "Waiting proportion for Water", Figure7},
		{"figure8", "Sampled overhead for the Water INTERF section (8 procs)", Figure8},
		{"figure9", "Sampled overhead for the Water POTENG section (8 procs)", Figure9},
		{"table9", "Statistics for the Water INTERF section", Table9},
		{"table10", "Statistics for the Water POTENG section", Table10},
		{"table11", "Mean minimum effective sampling intervals, INTERF (8 procs)", Table11},
		{"table12", "Mean minimum effective sampling intervals, POTENG (8 procs)", Table12},
		{"table13", "Mean times for varying intervals, INTERF (8 procs)", Table13},
		{"table14", "Mean times for varying intervals, POTENG (8 procs)", Table14},
		{"figure3", "Feasible region for the production interval (theory, §5)", Figure3},
		{"eq9", "Optimal production interval P_opt (theory, §5)", Eq9},
		{"string", "String application suite (§6.3; source text unavailable, structural reproduction)", StringSuite},
		{"ablation-async", "Ablation: asynchronous vs synchronous switching", AblationAsyncSwitch},
		{"ablation-cutoff", "Ablation: early cut-off and policy ordering (§4.5)", AblationEarlyCutoff},
		{"ablation-span", "Ablation: intervals spanning section executions (§4.4)", AblationSpanning},
		{"ablation-instr", "Ablation: instrumentation overhead (§4.3)", AblationInstrumentation},
		{"ablation-flags", "Ablation: multi-version vs flag-dispatch codegen (§4.2)", AblationFlagDispatch},
		{"ablation-autotune", "Ablation: run-time production-interval tuning (§5 closed loop)", AblationAutoTune},
		{"adapt-crossover", "Adaptivity: best-policy crossover under background contention (perturb)", AdaptCrossover},
		{"adapt-ramp", "Adaptivity: gradual lock-cost drift (perturb)", AdaptRamp},
		{"adapt-periodic", "Adaptivity: periodic contention bursts (perturb)", AdaptPeriodic},
		{"adapt-skew", "Adaptivity: per-processor slowdown, stolen cycles (perturb)", AdaptSkew},
	}
}

// Tiers returns the validation tiers of the two later subsystems, sampled
// simulation and the generated policy space. They are experiments like any
// other, selected by ID, but not part of Experiments: the golden, the root
// benchmarks and the dfperf suite workload enumerate that list, and the
// full-scale tiers are too slow to ride in it.
func Tiers() []Experiment {
	return []Experiment{
		{"sampling", "Tier: sampled simulation vs exhaustive ground truth", Sampling},
		{"policies-search", "Tier: generated policy space, representative-set search", PoliciesSearch},
		{"policies-duels", "Tier: round-robin vs bandit controller over the generated policy space", PoliciesDuels},
	}
}

// ExperimentByID finds an experiment or a tier.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range append(Experiments(), Tiers()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func fsec(t simmach.Time) string { return fmt.Sprintf("%.3f", t.Seconds()) }

func fms(t simmach.Time) string {
	return fmt.Sprintf("%.2f", float64(t)/float64(simmach.Millisecond))
}

// meanSampleInterval computes, per version label, the mean length of
// sampling intervals in a section's history.
func meanSampleInterval(sec *interp.SectionStats) map[string]simmach.Time {
	sums := map[string]simmach.Time{}
	counts := map[string]int{}
	for _, smp := range sec.Samples {
		if smp.Kind != "sampling" {
			continue
		}
		sums[smp.Label] += smp.End - smp.Start
		counts[smp.Label]++
	}
	out := map[string]simmach.Time{}
	for k, v := range sums {
		out[k] = v / simmach.Time(counts[k])
	}
	return out
}

// samplingIntervals counts the sampling intervals in a section's history.
func samplingIntervals(sec *interp.SectionStats) int {
	n := 0
	for _, smp := range sec.Samples {
		if smp.Kind == "sampling" {
			n++
		}
	}
	return n
}

// sortedKeys returns map keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
