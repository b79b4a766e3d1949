// Package bench regenerates every table and figure of the paper's
// evaluation (§6) plus the §5 theory figure, on the simulated machine. Each
// experiment produces a Report containing the same rows or series the paper
// reports, together with shape checks: assertions that the qualitative
// claims hold (who wins, by roughly what factor, where the crossovers are),
// since absolute numbers come from a scaled-down simulated substrate.
//
// cmd/dfbench prints the reports; BenchmarkExperiments in bench_test.go at
// the repository root runs each experiment as a sub-benchmark.
package bench

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
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

// Params returns the experiment input parameters for an application: a
// copy of the defaults its source declares, shrunk in Quick mode. It is
// nil for an application that does not compile.
func (s *Suite) Params(name string) map[string]int64 {
	c, err := s.App(name)
	if err != nil {
		return nil
	}
	out := maps.Clone(c.Parallel.Params)
	if !s.cfg.Quick {
		return out
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

// cell resolves one cell. Every simulation in the package goes through
// it: the memo single-flights on the cell's content address, a
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
// simulations in flight. A serial suite has nothing in flight to bound, so
// it skips the semaphore rather than paying a channel round-trip per
// simulation.
func (s *Suite) execute(prog *ir.Program, opts interp.Options) (*interp.Result, error) {
	if cap(s.sem) > 1 {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	opts.Engine = s.cfg.Engine
	return interp.Run(prog, opts)
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

// cellGrid is one application's results under every policy at every
// processor count of a policyGrid fan-out.
type cellGrid map[string]map[int]*interp.Result

// policyGrid simulates app under every policy at every processor count over
// the base options, in one Runs fan-out behind the lead cells, policy-major.
// It returns the lead cells' results and the grid.
func (s *Suite) policyGrid(app string, base interp.Options, policies []string, procs []int, lead ...RunSpec) ([]*interp.Result, cellGrid, error) {
	specs := slices.Clone(lead)
	for _, policy := range policies {
		for _, p := range procs {
			opts := base
			opts.Procs, opts.Policy = p, policy
			specs = append(specs, RunSpec{App: app, Opts: opts})
		}
	}
	results, err := s.Runs(specs)
	if err != nil {
		return nil, nil, err
	}
	cells := cellGrid{}
	for i, policy := range policies {
		cells[policy] = map[int]*interp.Result{}
		for j, p := range procs {
			cells[policy][p] = results[len(lead)+i*len(procs)+j]
		}
	}
	return results[:len(lead)], cells, nil
}

// runSection resolves the cell of an application's parallel program and
// returns one section's stats.
func (s *Suite) runSection(app, name string, opts interp.Options) (*interp.SectionStats, error) {
	res, err := s.Run(app, opts)
	if err != nil {
		return nil, err
	}
	if sec := section(res, name); sec != nil {
		return sec, nil
	}
	return nil, fmt.Errorf("bench: no section %s", name)
}

// Experiment is one table or figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite) (*Report, error)
}

// body fills the report an experiment is handed.
type body func(s *Suite, r *Report) error

// experiment is one registry entry, the one place an experiment's ID and
// title are stated: its Run hands fill a report carrying both.
func experiment(id, title string, fill body) Experiment {
	return Experiment{ID: id, Title: title, Run: func(s *Suite) (*Report, error) {
		r := &Report{ID: id, Title: title}
		if err := fill(s, r); err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	bh, water := apps.NameBarnesHut, apps.NameWater
	return []Experiment{
		experiment("table1", "Executable Code Sizes (bytes)", table1),
		experiment("table2", "Execution Times for Barnes-Hut (virtual seconds)", timesTable(bh, table2)),
		experiment("figure4", "Speedups for Barnes-Hut", speedupFigure(bh, figure4)),
		experiment("table3", "Locking Overhead for Barnes-Hut", lockingTable(bh, table3)),
		experiment("figure5", "Sampled Overhead for the Barnes-Hut FORCES Section on 8 Processors", overheadFigure(bh, "FORCES", figure5)),
		experiment("table4", "Statistics for the Barnes-Hut FORCES Section", sectionTable(bh, "FORCES", "aggressive")),
		experiment("table5", "Mean Minimum Effective Sampling Intervals for FORCES (8 processors)", minIntervalTable(bh, "FORCES", table5)),
		experiment("table6", "Mean Execution Times for Varying Intervals, FORCES (8 processors, virtual seconds)", intervalGrid(bh, "FORCES", table6)),
		experiment("table7", "Execution Times for Water (virtual seconds)", timesTable(water, table7)),
		experiment("figure6", "Speedups for Water", speedupFigure(water, figure6)),
		experiment("table8", "Locking Overhead for Water", lockingTable(water, table8)),
		experiment("figure7", "Waiting Proportion for Water", figure7),
		experiment("figure8", "Sampled Overhead for the Water INTERF Section on 8 Processors", overheadFigure(water, "INTERF", figure8)),
		experiment("figure9", "Sampled Overhead for the Water POTENG Section on 8 Processors", overheadFigure(water, "POTENG", figure9)),
		experiment("table9", "Statistics for the Water INTERF Section", sectionTable(water, "INTERF", "bounded")),
		experiment("table10", "Statistics for the Water POTENG Section", sectionTable(water, "POTENG", "bounded")),
		experiment("table11", "Mean Minimum Effective Sampling Intervals for INTERF (8 processors)", minIntervalTable(water, "INTERF", table11)),
		experiment("table12", "Mean Minimum Effective Sampling Intervals for POTENG (8 processors)", minIntervalTable(water, "POTENG", table12)),
		experiment("table13", "Mean Execution Times for Varying Intervals, INTERF (8 processors, virtual seconds)", intervalGrid(water, "INTERF", table13)),
		experiment("table14", "Mean Execution Times for Varying Intervals, POTENG (8 processors, virtual seconds)", intervalGrid(water, "POTENG", table14)),
		experiment("figure3", "Feasible Region for Production Interval P", figure3),
		experiment("eq9", "Optimal Production Interval (eq. 9)", eq9),
		experiment("string", "Execution Times for String (virtual seconds)", timesTable(apps.NameString, stringTimes)),
		experiment("ablation-async", "Synchronous vs Asynchronous Switching (Water, 8 procs)", ablationAsync),
		experiment("ablation-cutoff", "Early Cut-Off and Policy Ordering (Barnes-Hut, 8 procs)", ablationCutoff),
		experiment("ablation-span", "Intervals Spanning Section Executions (§4.4 extension)", ablationSpan),
		experiment("ablation-instr", "Instrumentation Overhead (Barnes-Hut, 8 procs)", ablationInstr),
		experiment("ablation-flags", "Multi-Version vs Flag-Dispatch Code Generation (§4.2)", ablationFlags),
		experiment("ablation-autotune", "Auto-Tuned Production Intervals (§5 at run time)", ablationAutoTune),
		experiment("adapt-crossover", "Adaptivity: best-policy crossover under background contention (Water POTENG, 8 procs)", adaptCrossover),
		experiment("adapt-ramp", "Adaptivity: gradual lock-cost drift (Water INTERF, 8 procs)", adaptRamp),
		experiment("adapt-periodic", "Adaptivity: periodic contention bursts (Water INTERF, 8 procs)", adaptPeriodic),
		experiment("adapt-skew", "Adaptivity: per-processor slowdown, stolen cycles (Barnes-Hut FORCES, 8 procs)", adaptSkew),
	}
}

// Tiers returns the validation tiers of the generated policy space. They
// are experiments like any other, selected by ID, but not part of
// Experiments: the golden, the root benchmarks and the dfperf suite
// workload enumerate that list, and the full-scale tiers are too slow to
// ride in it.
func Tiers() []Experiment {
	return []Experiment{
		experiment("policies-search", fmt.Sprintf("Generated policy space: representative-set search (%d procs)", searchProcs), policiesSearch),
		experiment("policies-duels", fmt.Sprintf("Generated policy space: round-robin vs bandit controller duels (%d procs)", searchProcs), policiesDuels),
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
