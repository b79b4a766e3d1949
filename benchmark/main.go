// Command dfperf is the repository's performance benchmark: four named
// workloads that each print the end-to-end metrics (untraced) or the
// per-layer metrics (traced) declared in BENCHMARK.json, after checking
// that the program's outputs are correct. It drives the layers through
// their public functions and times them from outside; see README.md.
//
//	go run -C benchmark . -workload sim-sync [-seed 1] [-seconds 10] [-trace 0|1]
//	go run -C benchmark . -calibrate 5 [-workload all] [-out runs.json]
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// config is one run's settings. The last three fields exist for the
// self-test only.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch directory, inside the checkout
	spans    string // file to write the traced window's spans to

	small   bool // shrink op lists and probe repetitions
	corrupt bool // flip a bit in one sim-* reference result
	tamper  bool // rewrite every /run response in flight
}

// setups builds a fresh world per workload. A set-up shares nothing with an
// earlier one: apps are recompiled, caches and stores start empty.
var setups = map[string]func(config) (*world, error){
	"sim-compute": func(c config) (*world, error) { return simSetup("sim-compute", c) },
	"sim-sync":    func(c config) (*world, error) { return simSetup("sim-sync", c) },
	"suite":       suiteSetup,
	"serve":       serveSetup,
}

// An untraced run sets its workload up in two rounds, one before the window
// and one after it. A round is at least minSetups set-ups and goes on (to
// maxSetups) until it has taken setupBudget. setup_s is the lower quartile
// of them all, for the reason the window reports its best decile: the host
// only ever adds time, in spells of 10-40 s, and two rounds half a minute
// apart seldom both fall inside one. With one round and the median, serve's
// setup_s read 0.31 s in one set of ten runs and 0.24 s in the next.
const (
	minSetups   = 2
	maxSetups   = 5
	setupBudget = 1500 * time.Millisecond
)

// runDoc is the output document of one run.
type runDoc struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     int      `json:"trace"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Samples   int      `json:"samples"`
	// SetupS is every set-up of the run, in time order (a round before the
	// window and one after); setup_s is its lower quartile.
	SetupS []float64 `json:"setups_s"`
	Cycles int       `json:"cycles"`
	// CycleRates is the throughput of each whole pass over the op list, in
	// time order: how steady the host was during the window.
	CycleRates []float64 `json:"cycle_ops_per_s"`
	// OpMedianMS is the median latency of each distinct op (cell,
	// experiment) over the window's whole passes.
	OpMedianMS map[string]float64 `json:"op_median_ms"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    metricSet          `json:"metrics"`
}

// result is the last line of standard output, in the driver's format.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(cfg config) (*runDoc, error) {
	setup, ok := setups[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	lo, hi := minSetups, maxSetups
	if cfg.trace || cfg.small {
		lo, hi = 1, 1
	}
	var w *world
	var setupTimes []time.Duration
	// round sets the workload up repeatedly and leaves the last world in w.
	round := func() error {
		var total time.Duration
		for i := 0; i < lo || (i < hi && total < setupBudget); i++ {
			if w != nil {
				w.close()
				// So that peak_rss_mb is one world's memory, not a sum that
				// depends on when the collector happened to run.
				runtime.GC()
			}
			t := time.Now()
			var err error
			if w, err = setup(cfg); err != nil {
				return fmt.Errorf("%s: set-up: %w", cfg.workload, err)
			}
			d := time.Since(t)
			setupTimes = append(setupTimes, d)
			total += d
		}
		return nil
	}
	if err := round(); err != nil {
		return nil, err
	}
	defer func() { w.close() }()

	doc := &runDoc{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Host: host()}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var st *windowStats
	if !cfg.trace {
		st = runWindow(w, window, nil)
		doc.Metrics = newE2E()
		doc.Metrics.set("ops_per_s", st.rate)
		doc.Metrics.set("op_p50_ms", ms(st.p50))
		doc.Metrics.set("op_p95_ms", ms(st.p95))
	} else {
		doc.Trace = 1
		doc.Metrics = newLayer()
		if err := runProbes(cfg, doc.Metrics); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		// Two windows on one world: the untraced one is the base that
		// trace.overhead_share compares the traced one with.
		base := runWindow(w, window*2/5, nil)
		tr := newTracer()
		before := readRuntime()
		st = runWindow(w, window*3/5, tr)
		after := readRuntime()
		spanMetrics(tr.spans, doc.Metrics)
		if st.attempted > 0 {
			doc.Metrics.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(st.attempted))
		}
		if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
			doc.Metrics.set("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/cpu)
		}
		if base.rate > 0 {
			doc.Metrics.set("trace.overhead_share", (base.rate-st.rate)/base.rate)
		}
		if w.layer != nil {
			w.layer(st, doc.Metrics)
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, tr.spans); err != nil {
				return nil, err
			}
		}
		st.attempted += base.attempted
		st.failed += base.failed
		st.errs = append(base.errs, st.errs...)
	}
	doc.Attempted, doc.Failed, doc.Errors = st.attempted, st.failed, st.errs
	doc.Samples, doc.Cycles, doc.CycleRates = st.samples, len(st.passes), st.passRates()
	doc.OpMedianMS = map[string]float64{}
	for name, ds := range st.byName {
		doc.OpMedianMS[name] = ms(medianDur(ds))
	}
	doc.Correct = st.failed == 0 && st.attempted > 0
	if !cfg.trace {
		if !cfg.small {
			if err := round(); err != nil {
				return nil, err
			}
		}
		doc.Metrics.set("setup_s", quantileDur(setupTimes, 25).Seconds())
		doc.Metrics.set("peak_rss_mb", peakRSSMB())
	}
	for _, d := range setupTimes {
		doc.SetupS = append(doc.SetupS, d.Seconds())
	}
	return doc, nil
}

type runtimeCounters struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	out := runtimeCounters{mallocs: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU, out.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return out
}

// spanMetrics reports mean self time per op for every span name.
func spanMetrics(spans []span, out metricSet) {
	ops := 0
	var opTotal time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			ops++
			opTotal += time.Duration(s.End - s.Start)
		}
	}
	if ops == 0 {
		return
	}
	out.set("span.op_us", us(opTotal)/float64(ops))
	for name, self := range selfTimes(spans) {
		metric := "span." + strings.ReplaceAll(name, ".", "_") + "_us"
		if name == "op" {
			metric = "span.op_self_us"
		}
		out.set(metric, us(self)/float64(ops))
	}
}

func workloadNames() []string {
	out := make([]string, len(workloadDescs))
	for i, w := range workloadDescs {
		out[i] = w.Name
	}
	return out
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with -calibrate)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: op order, parameter jitter, Zipf draws, key choice")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join("..", ".bench_build"), "scratch directory (created; this run's subdirectory is removed at exit)")
	flag.StringVar(&cfg.spans, "spans", "", "with -trace 1: write the recorded spans to this file as JSON")
	out := flag.String("out", "", "also write the output document(s) to this file")
	calibrate := flag.Int("calibrate", 0, "run the workload N times in child processes, seeds seed..seed+N-1, and print each end-to-end metric's spread")
	compare := flag.Bool("compare", false, "compare two -calibrate -out files: dfperf -compare a.json b.json")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	updateDigests := flag.Bool("update-digests", false, "rewrite testdata/digests.json from the sim-* workloads at this seed")
	flag.Parse()
	cfg.trace = *trace != 0

	switch {
	case *printSpec:
		os.Stdout.Write(specJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *calibrate > 0:
		if err := calibrateRuns(cfg, *calibrate, *out); err != nil {
			fatal(err)
		}
	case *updateDigests:
		if err := writeDigests(cfg); err != nil {
			fatal(err)
		}
	default:
		// Every workload is one closed-loop client, so a second P adds no
		// throughput, only wake-ups of an idle vCPU, and on the calibration
		// host those cost 11 us or 90 us depending on the hypervisor's mood:
		// serve read 12 k or 22 k op/s from run to run at GOMAXPROCS 2.
		runtime.GOMAXPROCS(1)
		dir, err := scratch(cfg.workdir)
		if err != nil {
			fatal(err)
		}
		cfg.workdir = dir
		doc, err := run(cfg)
		os.RemoveAll(dir)
		if err != nil {
			fatal(err)
		}
		pretty, _ := json.MarshalIndent(doc, "", "  ")
		fmt.Printf("%s\n", pretty)
		if *out != "" {
			if err := writeDocs(*out, []*runDoc{doc}); err != nil {
				fatal(err)
			}
		}
		for _, e := range doc.Errors {
			fmt.Fprintln(os.Stderr, "dfperf: failed:", e)
		}
		line, _ := json.Marshal(result{doc.Correct, doc.Attempted, doc.Failed, doc.Metrics})
		fmt.Printf("%s\n", line)
	}
}

// scratch creates this run's directory under root.
func scratch(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "dfperf-*")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfperf:", err)
	os.Exit(2)
}

// docFile is what -out writes and -compare reads.
type docFile struct {
	Runs []*runDoc `json:"runs"`
}

func writeDocs(path string, docs []*runDoc) error {
	data, err := json.MarshalIndent(docFile{docs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocs(path string) (map[string][]*runDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f docFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]*runDoc{}
	for _, d := range f.Runs {
		if d.Trace == 0 {
			out[d.Workload] = append(out[d.Workload], d)
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
