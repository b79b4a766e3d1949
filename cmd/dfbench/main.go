// Command dfbench regenerates the tables and figures of the paper's
// evaluation on the simulated machine and reports the shape checks. Its
// output is the science artifact: every number in it is virtual time on
// the simulated machine, so the rendered reports and the -json document are
// a pure function of the selection, -quick, -procs and -controller —
// byte-identical at any -p, on any host, with or without -cache. How fast
// the host produced them is dfperf's question (benchmark/, docs/perf.md),
// not dfbench's.
//
// Experiments run through the parallel experiment engine
// (internal/parexec): independent simulations fan out across the host's
// cores, memoized single-flight so shared cells are simulated exactly once.
//
// -run selects what runs, by ID (-list shows them): experiment IDs, `all`
// (every experiment, the default) and the validation tiers
// (internal/bench.Tiers), which are experiments `all` leaves out:
// `policies-search` prunes the generated policy space to a representative
// set and `policies-duels` duels the bandit controller against round-robin
// on every adaptivity scenario. Every claim is a shape check, and failed
// shape checks are the one gate: dfbench counts them into the document's
// failed_checks and exits 1 if there are any.
//
// The content-addressed simulation cache (internal/simcache) persists
// results across processes: -cache DIR makes every simulation consult and
// populate DIR, so a warm run simulates nothing. -cache-verify follows the
// run with a second, warm pass that re-simulates every hit and
// byte-compares it against the cached record (against a memory-only cache
// when no -cache is given). Cache traffic is summarized on stderr; stdout
// carries the rendered reports only.
//
// -procs lists the processor counts of the execution-time tables and
// figures. It must be strictly increasing, at most 256 (the largest
// machine simmach is exercised at), and include 1 and 8, the counts the
// tables' claims are read at; anything else is bad usage, and so is a
// negative -p.
//
// -controller selects the dynamic feedback controller for the suite's
// dynamic runs (roundrobin, the paper's, or ucb, the confidence-bound
// bandit). The controller kind is part of the simulation cache key.
//
// Usage:
//
//	dfbench [-quick] [-procs 1,2,4,6,8,12,16] [-run all|ID,...] [-list]
//	        [-p N] [-csv dir] [-json path] [-cache dir] [-cache-verify]
//	        [-controller roundrobin|ucb]
package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/parexec"
	"repro/internal/simcache"
	"repro/internal/simmach"
)

// experimentByID resolves one -run ID; a variable so a test can select an
// experiment that fails a check.
var experimentByID = bench.ExperimentByID

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit code: 0, 1 for a failed run or shape check, 2 for bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run with reduced input sizes")
	procsFlag := fs.String("procs", "", "comma-separated processor counts, strictly increasing and including 1 and 8 (default 1,2,4,6,8,12,16)")
	runFlag := fs.String("run", "all", "comma-separated IDs: experiments, tiers, or all for every experiment (see -list)")
	par := fs.Int("p", 0, "max simulations in flight (default GOMAXPROCS; 1 runs serially)")
	csvDir := fs.String("csv", "", "also write each experiment's rows and series as CSV files into this directory")
	jsonPath := fs.String("json", "", "write every report as one JSON document to this path")
	list := fs.Bool("list", false, "list experiment and tier IDs and exit")
	cacheDir := fs.String("cache", "", "content-addressed simulation cache directory (persists results across runs)")
	cacheVerify := fs.Bool("cache-verify", false, "after the run, re-simulate every cache hit in a warm pass and byte-compare it against the cached record")
	controller := fs.String("controller", "", "feedback controller for dynamic runs: roundrobin (default) or ucb")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "dfbench: "+format+"\n", a...)
		return code
	}

	if *list {
		for _, e := range append(bench.Experiments(), bench.Tiers()...) {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *par < 0 {
		return fail(2, "-p %d is negative", *par)
	}
	if !core.ValidKind(*controller) {
		return fail(2, "unknown controller %q (want %s or %s)", *controller, core.KindRoundRobin, core.KindUCB)
	}
	cfg := bench.SuiteConfig{Quick: *quick, Parallelism: parexec.Workers(*par), Controller: *controller}
	if *procsFlag != "" {
		for _, part := range strings.Split(*procsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 || n > simmach.MaxExercisedProcs {
				return fail(2, "bad -procs entry %q (want 1 to %d)", part, simmach.MaxExercisedProcs)
			}
			if len(cfg.Procs) > 0 && n <= cfg.Procs[len(cfg.Procs)-1] {
				return fail(2, "-procs %s is not strictly increasing", *procsFlag)
			}
			cfg.Procs = append(cfg.Procs, n)
		}
		// Every paper table states its claims at 1 and 8 processors, and
		// the figures read the last count as the largest.
		if !slices.Contains(cfg.Procs, 1) || !slices.Contains(cfg.Procs, 8) {
			return fail(2, "-procs %s must include 1 and 8, the counts the tables' claims are read at", *procsFlag)
		}
	}
	var selected []bench.Experiment
	for _, id := range strings.Split(*runFlag, ",") {
		if id = strings.TrimSpace(id); id == "all" {
			selected = append(selected, bench.Experiments()...)
			continue
		}
		e, ok := experimentByID(id)
		if !ok {
			return fail(2, "unknown experiment or tier %q; use -list", id)
		}
		selected = append(selected, e)
	}
	var cache *simcache.Cache
	if *cacheDir != "" || *cacheVerify {
		c, err := simcache.New(simcache.Config{Dir: *cacheDir})
		if err != nil {
			return fail(1, "%v", err)
		}
		cache = c
		cfg.Cache = cache
	}

	doc := document{Quick: cfg.Quick, Procs: cfg.Procs}
	var err error
	if doc.Experiments, err = runSuite(cfg, selected); err != nil {
		return fail(1, "%v", err)
	}
	for _, rep := range doc.Experiments {
		fmt.Fprintln(stdout, rep.Format())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep); err != nil {
				return fail(1, "csv: %v", err)
			}
		}
		doc.FailedChecks += len(rep.Failed())
	}
	if *cacheVerify {
		// A warm pass over the now-populated cache: every cell hits, and
		// each hit is re-simulated and byte-compared inside the suite.
		vcfg := cfg
		vcfg.CacheVerify = true
		warm, err := runSuite(vcfg, selected)
		if err != nil {
			return fail(1, "cache-verify pass: %v", err)
		}
		for i, rep := range doc.Experiments {
			if rep.Format() != warm[i].Format() {
				return fail(1, "CACHE VIOLATION: %s differs between cold and warm passes", rep.ID)
			}
		}
		fmt.Fprintln(stderr, "cache verify: every hit re-simulated and byte-identical; reports byte-identical")
	}
	if cache != nil {
		st := cache.Stats()
		doc.Cache = &cacheJSON{Verified: *cacheVerify, Stats: st}
		fmt.Fprintf(stderr, "cache: %d mem hit(s), %d disk hit(s), %d miss(es), %d put(s), %d error(s)\n",
			st.MemHits, st.DiskHits, st.Misses, st.Puts, st.Errors)
	}

	// The document is written before the gate exits, so a failing run still
	// leaves the evidence behind.
	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(1, "json: %v", err)
		}
	}
	if doc.FailedChecks > 0 {
		return fail(1, "%d shape check(s) failed", doc.FailedChecks)
	}
	return 0
}

// runSuite executes the selected experiments on a fresh suite, fanning
// them out across cfg.Parallelism workers; reports come back in selection
// order.
func runSuite(cfg bench.SuiteConfig, selected []bench.Experiment) ([]*bench.Report, error) {
	suite := bench.NewSuite(cfg)
	return parexec.Map(cfg.Parallelism, selected, func(_ int, e bench.Experiment) (*bench.Report, error) {
		rep, err := e.Run(suite)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return rep, nil
	})
}

// document is the -json artifact: the reports of one run. It carries no
// host time, date or host description, so two runs of one selection are
// byte-identical.
type document struct {
	Quick        bool            `json:"quick"`
	Procs        []int           `json:"procs,omitempty"`
	Cache        *cacheJSON      `json:"cache,omitempty"`
	FailedChecks int             `json:"failed_checks"`
	Experiments  []*bench.Report `json:"experiments"`
}

// cacheJSON records one run's interaction with the simulation cache:
// whether hits were byte-verified against fresh simulations, and the
// traffic counters.
type cacheJSON struct {
	Verified bool           `json:"verified"`
	Stats    simcache.Stats `json:"stats"`
}

// writeCSV stores a report's table as <id>.csv and each series as
// <id>_<series>.csv, for plotting.
func writeCSV(dir string, rep *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, records [][]string) error {
		var b bytes.Buffer
		if err := csv.NewWriter(&b).WriteAll(records); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644)
	}
	if len(rep.Header) > 0 {
		if err := write(rep.ID+".csv", append([][]string{rep.Header}, rep.Rows...)); err != nil {
			return err
		}
	}
	for _, ser := range rep.Series {
		records := [][]string{{rep.XLabel, rep.YLabel}}
		for i := range ser.X {
			records = append(records, []string{fmt.Sprintf("%g", ser.X[i]), fmt.Sprintf("%g", ser.Y[i])})
		}
		name := rep.ID + "_" + strings.Map(func(r rune) rune {
			if r == '/' || r == ' ' {
				return '-'
			}
			return r
		}, ser.Name) + ".csv"
		if err := write(name, records); err != nil {
			return err
		}
	}
	return nil
}
