package main

import (
	"encoding/json"
	"fmt"
)

// This file is the single declaration of what the benchmark measures.
// BENCHMARK.json at the repository root is `go run . -print-spec`; the
// self-test fails when the two drift apart.

// runSeconds is the measured window of one driver run. The driver makes
// 4 + 22 x 4 = 92 runs in 3420 s, two cold builds (20 s each) included, so
// 36 s a run; a run here is the window, two rounds of set-ups (3-7.5 s
// between them) and ~0.5 s of `go run`, 30-34 s in all. The window is as
// long as that allows with a margin of a tenth, because the host's slow
// spells last 10-40 s (README, "Calibration") and the window statistics
// need a quiet stretch inside every window to read the code's own speed.
const runSeconds = 26

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDescs = []workloadDesc{
	{"sim-compute", "Barnes-Hut cells where VM dispatch does nearly all the host work and simmach almost none: an engine change shows, a scheduler change must not"},
	{"sim-sync", "Water and String cells with ~100x the lock pairs per op: simmach handoff, heap dispatch and barriers dominate, bounding what a dispatch speed-up can buy"},
	{"suite", "dfbench path on an empty simcache, 20 experiments a pass: source, oblc, both controllers, perturbed runs, simmach, cache put, rendered report; the write side of the cache"},
	{"serve", "one keep-alive client POSTs /run over in-memory pipes, Zipf(1.1) over 4x the memory tier, ~100% hits: decode, CacheKey, lookup, encode, net/http; the read side of the cache"},
}

// Every workload reports every end-to-end metric (the driver's contract),
// so an "op" is defined per workload: one interp.Run (sim-*), one
// experiment run and rendered (suite), one POST /run (serve). One bound per metric has to
// hold on every workload, so each is set by the workload that was noisiest
// on the shared 2-CPU calibration host, whose speed moves by a quarter for
// minutes at a time (README, "Calibration"): the contract's ceiling, 0.25.
var endToEnd = []e2eSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p95_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer lists every per-layer metric. Window metrics come from the
// traced window of the workload being run and read 0 on workloads whose
// ops never enter that layer (which is itself the evidence that the
// workloads separate the layers). Probe metrics are micro-benchmarks of one
// layer through its public API; they run in every traced run and do not
// depend on the workload.
var perLayer = []layerSpec{
	// Spans recorded by the harness around each call into a layer: mean
	// self time per op.
	{"span.op_us", "us", lower},
	{"span.op_self_us", "us", lower},
	{"span.interp_run_us", "us", lower},
	{"span.bench_run_us", "us", lower},
	{"span.bench_format_us", "us", lower},
	{"span.serve_handler_us", "us", lower},

	// oblc (probes).
	{"oblc.parse_ms", "ms", lower},
	{"oblc.check_ms", "ms", lower},
	{"oblc.compile_ms", "ms", lower},
	{"oblc.compile_gen18_ms", "ms", lower},
	{"oblc.code_bytes", "B", lower},

	// vm (probes).
	{"vm.compile_ms", "ms", lower},
	{"vm.warmup_penalty_ms", "ms", lower},
	{"vm.speedup_over_interp", "ratio", higher},

	// interp: window metrics on sim-*, then probes.
	{"interp.host_ns_per_vstep", "ns", lower},
	{"interp.vsec_per_host_s", "ratio", higher},
	{"interp.steps_per_op", "count", lower},
	{"interp.digest_drift_cells", "count", lower},
	{"interp.allocs_per_run", "count", lower},
	{"interp.cachekey_us", "us", lower},
	{"interp.fingerprint_ms", "ms", lower},

	// simmach: window metrics on sim-*, then probes.
	{"simmach.sync_share", "ratio", lower},
	{"simmach.acquires_per_op", "count", lower},
	{"simmach.failed_acquire_share", "ratio", lower},
	{"simmach.ns_per_lock_pair", "ns", lower},
	{"simmach.dispatch_ns_p1", "ns", lower},
	{"simmach.dispatch_ns_p16", "ns", lower},
	{"simmach.handoff_ns_p16", "ns", lower},
	{"simmach.barrier_ns_p16", "ns", lower},
	{"simmach.checkpoint_us", "us", lower},
	{"simmach.restore_us", "us", lower},

	// core (probes): simulated quality and counts over the 35 adapt cells,
	// which repeat exactly; their host cost; the controllers driven bare.
	{"core.dyn_over_best", "ratio", lower},
	{"core.dyn_ucb_over_best", "ratio", lower},
	{"core.readapt_virtual_ms", "ms", lower},
	{"core.samples_per_run", "count", lower},
	{"core.switches_per_run", "count", lower},
	{"core.sampling_share", "ratio", lower},
	{"core.static_cell_ms", "ms", lower},
	{"core.dyn_cell_ms", "ms", lower},
	{"core.rr_ns_per_phase", "ns", lower},
	{"core.ucb_ns_per_phase", "ns", lower},

	// perturb (probes).
	{"perturb.table_build_us", "us", lower},
	{"perturb.host_overhead_ratio", "ratio", lower},

	// simcache: hit shares on serve, then probes.
	{"simcache.mem_hit_share", "ratio", higher},
	{"simcache.disk_hit_share", "ratio", lower},
	{"simcache.encode_us", "us", lower},
	{"simcache.put_us", "us", lower},
	{"simcache.get_mem_us", "us", lower},
	{"simcache.get_disk_us", "us", lower},
	{"simcache.entry_bytes", "B", lower},

	// bench and parexec: window metrics on suite, then its warm passes and
	// one parallel pass.
	{"bench.cold_pass_s", "s", lower},
	{"bench.warm_pass_s", "s", lower},
	{"bench.cold_ms.figure5", "ms", lower},
	{"bench.cold_ms.ablation-instr", "ms", lower},
	{"bench.cold_ms.adapt-crossover", "ms", lower},
	{"bench.cold_ms.adapt-skew", "ms", lower},
	{"bench.cold_ms.string", "ms", lower},
	{"bench.warm_ms.table1", "ms", lower},
	{"bench.render_us", "us", lower},
	{"bench.cells", "count", lower},
	{"bench.failed_checks", "count", lower},
	{"parexec.speedup_p2", "ratio", higher},

	// serve: window metrics on serve, then probes.
	{"serve.http_overhead_us", "us", lower},
	{"serve.handler_us", "us", lower},
	{"serve.internal_run_us", "us", lower},
	{"serve.resp_bytes", "B", lower},
	{"serve.stats_us", "us", lower},
	{"serve.metrics_us", "us", lower},

	// store (probes).
	{"store.mem_put_us", "us", lower},
	{"store.mem_get_us", "us", lower},
	{"store.kv_put_us", "us", lower},
	{"store.kv_get_us", "us", lower},
	{"store.file_put_us", "us", lower},
	{"store.file_get_us", "us", lower},
	{"store.kv_reopen_ms", "ms", lower},
	{"store.kv_wal_bytes_per_put", "B", lower},

	// hub, fleet and dynfb (probes). fleet.propagate_* is one CAS-Put on a
	// KV-backed replica until a peer's Watch delivers it through the hub;
	// the three below it are that op's spans (mean self time).
	{"hub.apply_us_per_record", "us", lower},
	{"hub.push_rtt_us", "us", lower},
	{"hub.state_ms", "ms", lower},
	{"fleet.propagate_p50_us", "us", lower},
	{"fleet.propagate_p95_us", "us", lower},
	{"fleet.store_put_us", "us", lower},
	{"fleet.hub_push_us", "us", lower},
	{"fleet.watch_wake_us", "us", lower},
	{"fleet.cas_conflicts", "count", lower},
	{"fleet.warm_boot_ms", "ms", lower},
	{"dynfb.dispatch_ns_per_iter", "ns", lower},
	{"dynfb.lock_ns_per_pair", "ns", lower},

	// The harness itself, from the traced window.
	{"runtime.allocs_per_op", "count", lower},
	{"runtime.gc_cpu_share", "ratio", lower},
	{"trace.overhead_share", "ratio", lower},
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDescs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	data, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(data, '\n')
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value.
type metricSet map[string]value

// newE2E and newLayer start a set holding every declared metric at zero
// with its unit, so a run always reports exactly the declared names.
func newE2E() metricSet {
	out := metricSet{}
	for _, m := range endToEnd {
		out[m.Name] = value{Unit: m.Unit}
	}
	return out
}

func newLayer() metricSet {
	out := metricSet{}
	for _, m := range perLayer {
		out[m.Name] = value{Unit: m.Unit}
	}
	return out
}

// set stores v under a declared name; an undeclared name is a harness bug.
func (m metricSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("dfperf: metric %q is not declared in spec.go", name))
	}
	cur.Value = v
	m[name] = cur
}
