package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/simcache"
)

// suiteSkipped are the experiments the suite workload leaves out, with the
// Quick preset at processor counts 1 and 8 for the rest. The full 34 take
// ~9 s cold on the calibration host, and the window statistics want ten or
// more whole passes in a 28 s window, because the host's interference comes
// in spells of seconds (runner.go). What stays (19 experiments, ~2 s cold)
// walks the whole path: compile, static and dynamic runs of all three apps,
// ablations, the four perturbed scenarios under both controllers, cache put,
// report build. ablation-flags and ablation-span go because they bypass
// simcache: they re-simulate on every pass, which makes them 90 % of a warm
// pass (README, "Found while measuring").
var suiteSkipped = map[string]bool{
	"table2": true, "figure4": true, "table3": true, // Barnes-Hut procs fan-out: sim-compute covers the cells
	"table7": true, "figure6": true, "table8": true, "figure7": true, // Water procs fan-out, 0.45 s
	"table6": true, "table13": true, "table14": true, // interval sweeps, 2.3 s between them
	"ablation-cutoff": true, "ablation-autotune": true, // 0.25 s; async and instr stay
	"ablation-flags": true, "ablation-span": true,
}

func suiteExperiments(small bool) []bench.Experiment {
	var out []bench.Experiment
	for _, e := range bench.Experiments() {
		if !suiteSkipped[e.ID] {
			out = append(out, e)
		}
	}
	if small {
		out = out[:1] // table1: compiles the three apps, no simulation
		if e, ok := bench.ExperimentByID("figure8"); ok {
			out = append(out, e)
		}
	}
	return out
}

// suiteWorld is a set-up suite workload. A cycle is one cold pass over the
// experiments: a fresh bench.Suite on a fresh empty cache directory. The
// experiments run in the paper's order whatever the seed: bench.Suite takes
// no inputs a seed could vary, and experiments share cells, so the order
// decides which of them pays for a shared cell and the per-experiment
// metrics need it fixed.
type suiteWorld struct {
	exps    []bench.Experiment
	root    string // this world's scratch directory
	filled  string // the cache directory the set-up pass populated
	passDir string // the current pass's directory
	suite   *bench.Suite
	cache   *simcache.Cache
	// renders holds each experiment's rendered report from the set-up pass.
	renders map[string]string

	renderTime   time.Duration
	failedChecks int
	passes       int
	puts, hits   int64
}

func newSuite(cache *simcache.Cache, parallelism int) *bench.Suite {
	return bench.NewSuite(bench.SuiteConfig{Quick: true, Procs: []int{1, 8}, Parallelism: parallelism, Cache: cache})
}

// pass runs every experiment once on a fresh suite over dir and returns
// the rendered reports.
func suitePass(exps []bench.Experiment, dir string, parallelism int) (map[string]string, error) {
	cache, err := simcache.New(simcache.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	s := newSuite(cache, parallelism)
	out := map[string]string{}
	for _, e := range exps {
		r, err := e.Run(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		if f := r.Failed(); len(f) > 0 {
			return nil, fmt.Errorf("%s: failed shape checks: %v", e.ID, f)
		}
		out[e.ID] = r.Format()
	}
	return out, nil
}

func suiteSetup(cfg config) (*world, error) {
	root, err := os.MkdirTemp(cfg.workdir, "suite-*")
	if err != nil {
		return nil, err
	}
	exps := suiteExperiments(cfg.small)
	sw := &suiteWorld{exps: exps, root: root, filled: root + "/filled"}
	// One untimed cold pass: it warms the process, yields the renders that
	// every measured op must reproduce byte for byte, and fills the cache
	// directory the traced run's warm passes read.
	if sw.renders, err = suitePass(exps, sw.filled, 1); err != nil {
		os.RemoveAll(root)
		return nil, err
	}

	ops := make([]op, len(exps))
	for i, e := range exps {
		e := e
		ops[i] = op{name: e.ID, run: func(sc scope) (func() error, error) {
			var r *bench.Report
			var err error
			sc.call("bench.run", func() { r, err = e.Run(sw.suite) })
			if err != nil {
				return nil, err
			}
			var text string
			t := time.Now()
			sc.call("bench.format", func() { text = r.Format() })
			sw.renderTime += time.Since(t)
			return func() error {
				if f := r.Failed(); len(f) > 0 {
					sw.failedChecks += len(f)
					return fmt.Errorf("failed shape checks: %v", f)
				}
				if text != sw.renders[e.ID] {
					return fmt.Errorf("rendered report differs from the set-up pass's")
				}
				return nil
			}, nil
		}}
	}

	return &world{
		ops:         ops,
		beforeCycle: sw.beforeCycle,
		layer:       sw.layer,
		close:       func() { os.RemoveAll(root) },
	}, nil
}

func (sw *suiteWorld) beforeCycle() error {
	sw.account()
	if sw.passDir != "" {
		os.RemoveAll(sw.passDir)
	}
	var err error
	if sw.passDir, err = os.MkdirTemp(sw.root, "pass-*"); err != nil {
		return err
	}
	cache, err := simcache.New(simcache.Config{Dir: sw.passDir})
	if err != nil {
		return err
	}
	sw.cache, sw.suite = cache, newSuite(cache, 1)
	sw.passes++
	return nil
}

// account folds the finished pass's cache traffic into the totals.
func (sw *suiteWorld) account() {
	if sw.cache != nil {
		s := sw.cache.Stats()
		sw.puts += s.Puts
		sw.hits += s.Hits()
		sw.cache = nil
	}
}

func (sw *suiteWorld) layer(st *windowStats, out metricSet) {
	sw.account()
	perExp := func(metric, id string) {
		if ds := st.byName[id]; len(ds) > 0 {
			out.set(metric, ms(medianDur(ds)))
		}
	}
	out.set("bench.cold_pass_s", medianDur(st.passDurs()).Seconds())
	perExp("bench.cold_ms.figure5", "figure5")
	perExp("bench.cold_ms.ablation-instr", "ablation-instr")
	perExp("bench.cold_ms.adapt-crossover", "adapt-crossover")
	perExp("bench.cold_ms.adapt-skew", "adapt-skew")
	perExp("bench.cold_ms.string", "string")
	if sw.passes > 0 {
		out.set("bench.render_us", us(sw.renderTime)/float64(sw.passes))
		out.set("bench.cells", float64(sw.puts+sw.hits)/float64(sw.passes))
	}
	out.set("bench.failed_checks", float64(sw.failedChecks))
	if err := sw.warmProbe(out); err != nil {
		fmt.Fprintln(os.Stderr, "dfperf: warm passes:", err)
		out.set("bench.failed_checks", out["bench.failed_checks"].Value+1)
	}
	sw.parexecProbe(out)
}

// warmProbe is the read side of the cache: passes on a fresh Suite and a
// fresh Cache object over the directory the set-up pass filled, so every
// cell is a disk hit, decoded, and built into a report that must equal the
// cold one byte for byte.
func (sw *suiteWorld) warmProbe(out metricSet) error {
	const passes = 9
	var pass, table1 []time.Duration
	for i := 0; i < passes; i++ {
		cache, err := simcache.New(simcache.Config{Dir: sw.filled})
		if err != nil {
			return err
		}
		s := newSuite(cache, 1)
		t := time.Now()
		for _, e := range sw.exps {
			te := time.Now()
			r, err := e.Run(s)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if r.Format() != sw.renders[e.ID] {
				return fmt.Errorf("%s: warm render differs from the cold one", e.ID)
			}
			if e.ID == "table1" {
				table1 = append(table1, time.Since(te))
			}
		}
		pass = append(pass, time.Since(t))
		if st := cache.Stats(); st.Misses > 0 {
			return fmt.Errorf("warm pass %d missed the cache %d times", i, st.Misses)
		}
	}
	out.set("bench.warm_pass_s", medianDur(pass).Seconds())
	out.set("bench.warm_ms.table1", ms(medianDur(table1)))
	return nil
}

// parexecProbe times one cold pass at Parallelism nproc against one at 1,
// with GOMAXPROCS raised to nproc for the pair.
func (sw *suiteWorld) parexecProbe(out metricSet) {
	nproc := runtime.NumCPU()
	if nproc < 2 {
		fmt.Fprintln(os.Stderr, "dfperf: parexec.speedup_p2 refused: one CPU cannot show a parallel speed-up; reporting 0")
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	timePass := func(parallelism int) (time.Duration, error) {
		dir, err := os.MkdirTemp(sw.root, "parexec-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		t := time.Now()
		_, err = suitePass(sw.exps, dir, parallelism)
		return time.Since(t), err
	}
	serial, err := timePass(1)
	if err != nil {
		return
	}
	parallel, err := timePass(nproc)
	if err != nil || parallel <= 0 {
		return
	}
	out.set("parexec.speedup_p2", serial.Seconds()/parallel.Seconds())
}
