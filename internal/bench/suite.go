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
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obl/ir"
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
	// prewarm their cells (see Prewarm) or run side by side. Every
	// simulation is deterministic and memoized single-flight, so results —
	// and therefore rendered reports — are byte-identical at any
	// parallelism. Default runtime.GOMAXPROCS(0); 1 runs everything
	// serially.
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
	// Engine is the seam dfbench -engine-timing and the engine parity test
	// use to run the whole suite under interp.EngineInterp, the reference
	// oracle, and byte-compare its reports with the VM's (the default,
	// and the only engine any other caller uses). Results are identical,
	// so the engine is deliberately absent from content-addressed cache
	// keys; it only enters the in-process memo keys so timing passes
	// under different engines never share cells.
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
// `dfbench -json` writes, so downstream tooling can track the perf
// trajectory across PRs.
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
// The caches are concurrency-safe and single-flight: identical
// configurations are simulated exactly once, and concurrent callers of the
// same cell block on and share that one execution, so experiments may
// prewarm cells or run side by side (cmd/dfbench does both) without
// duplicating work or perturbing results.
type Suite struct {
	cfg      SuiteConfig
	compiled parexec.Group[string, *oblc.Compiled]
	runs     parexec.Group[string, *interp.Result]
	// sem bounds the simulations actually executing across every caller,
	// including nested prewarms from concurrently running experiments.
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

// Run executes (with single-flight memoization) an application on the
// simulated machine. It is safe for concurrent use; identical
// configurations are simulated exactly once.
func (s *Suite) Run(name string, opts interp.Options) (*interp.Result, error) {
	key := fmt.Sprintf("%s|%d|%s|%s|%d|%d|%v%v%v%v%v|%d|%s|%s", name, opts.Procs, opts.Policy,
		opts.Controller, opts.TargetSampling, opts.TargetProduction,
		opts.EarlyCutoff, opts.OrderByHistory, opts.SpanExecutions, opts.AsyncSwitch,
		opts.AutoTuneProduction, opts.InstrumentationCost, s.cfg.Engine, s.cfg.Controller)
	return s.runs.Do(key, func() (*interp.Result, error) {
		c, err := s.App(name)
		if err != nil {
			return nil, err
		}
		opts.Params = s.Params(name)
		return s.simulate(c.Parallel, opts, fmt.Sprintf("%s %s/%d", name, opts.Policy, opts.Procs))
	})
}

// RunWith executes an application with fully explicit options — parameter
// overrides and perturbation schedule included — memoized like Run. The
// adaptivity experiments use it: their workloads are sized to straddle the
// scenario's change points, independent of the Quick-scaled shared cells.
func (s *Suite) RunWith(name string, opts interp.Options) (*interp.Result, error) {
	var pb strings.Builder
	for _, k := range sortedKeys(opts.Params) {
		fmt.Fprintf(&pb, "%s=%d,", k, opts.Params[k])
	}
	key := fmt.Sprintf("%s|with|%d|%s|%s|%d|%d|%v%v%v%v%v|%d|%s|%s|%s|%s", name, opts.Procs, opts.Policy,
		opts.Controller, opts.TargetSampling, opts.TargetProduction,
		opts.EarlyCutoff, opts.OrderByHistory, opts.SpanExecutions, opts.AsyncSwitch,
		opts.AutoTuneProduction, opts.InstrumentationCost, pb.String(), opts.Perturb.Key(), s.cfg.Engine, s.cfg.Controller)
	return s.runs.Do(key, func() (*interp.Result, error) {
		c, err := s.App(name)
		if err != nil {
			return nil, err
		}
		return s.simulate(c.Parallel, opts, fmt.Sprintf("%s %s/%d", name, opts.Policy, opts.Procs))
	})
}

// RunSerial executes the serial baseline.
func (s *Suite) RunSerial(name string) (*interp.Result, error) {
	return s.runs.Do(name+"|serial|"+s.cfg.Engine, func() (*interp.Result, error) {
		c, err := s.App(name)
		if err != nil {
			return nil, err
		}
		return s.simulate(c.Serial, interp.Options{Params: s.Params(name)}, name+" serial")
	})
}

// simulate resolves one simulation cell: through the content-addressed
// cache when one is configured (verifying hits when CacheVerify is set),
// otherwise by simulating under the suite-wide in-flight bound.
func (s *Suite) simulate(prog *ir.Program, opts interp.Options, desc string) (*interp.Result, error) {
	if opts.Controller == "" {
		// Resolved here, before the cache lookup: the controller kind is
		// part of the content address, so the suite default must be in
		// force when the key is derived.
		opts.Controller = s.cfg.Controller
	}
	cache := s.cfg.Cache
	key := ""
	if cache != nil {
		if k, ok := interp.CacheKey(prog, opts); ok {
			key = k
			if res, hit := cache.Get(key); hit {
				if !s.cfg.CacheVerify {
					return res, nil
				}
				fresh, err := s.execute(prog, opts, desc)
				if err != nil {
					return nil, err
				}
				cached, err := simcache.EncodeResult(res)
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", desc, err)
				}
				want, err := simcache.EncodeResult(fresh)
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", desc, err)
				}
				if !bytes.Equal(cached, want) {
					return nil, fmt.Errorf("bench: %s: cached result differs from fresh simulation (key %s)", desc, key)
				}
				return res, nil
			}
		}
	}
	res, err := s.execute(prog, opts, desc)
	if err != nil {
		return nil, err
	}
	if key != "" {
		cache.Put(key, res)
	}
	return res, nil
}

// execute simulates with up to Parallelism simulations in flight. A
// serial suite (Parallelism 1) has nothing in flight to bound — Prewarm
// already declines to fan out — so it skips the semaphore entirely rather
// than paying a channel round-trip per simulation.
func (s *Suite) execute(prog *ir.Program, opts interp.Options, desc string) (*interp.Result, error) {
	if cap(s.sem) > 1 {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	if opts.Engine == "" {
		opts.Engine = s.cfg.Engine
	}
	r, err := interp.Run(prog, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", desc, err)
	}
	return r, nil
}

// RunSpec names one memoized simulation cell: the serial baseline when
// Serial is set, otherwise a parallel-program run with Opts.
type RunSpec struct {
	App    string
	Serial bool
	Opts   interp.Options
}

// Prewarm simulates every spec with up to Parallelism simulations in
// flight, populating the single-flight cache so that a subsequent serial
// collection pass gets pure cache hits. Errors are not reported here: a
// failing cell fails identically (memoized) when the experiment's own
// Run call reaches it, preserving the serial error behaviour.
func (s *Suite) Prewarm(specs []RunSpec) {
	if s.cfg.Parallelism <= 1 || len(specs) <= 1 {
		return
	}
	parexec.Map(s.cfg.Parallelism, specs, func(_ int, sp RunSpec) (struct{}, error) {
		if sp.Serial {
			s.RunSerial(sp.App)
		} else {
			s.Run(sp.App, sp.Opts)
		}
		return struct{}{}, nil
	})
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

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentIDs lists all experiment IDs.
func ExperimentIDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
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

// sortedKeys returns map keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
