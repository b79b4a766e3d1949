package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func smallConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, seconds: 0.3, workdir: t.TempDir(), small: true}
}

// The committed BENCHMARK.json is spec.go rendered, and it stays inside the
// limits the driver refuses a benchmark for.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run -C benchmark . -print-spec > BENCHMARK.json")
	}
	s := spec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup || len(s.EndToEnd) > 16 {
		t.Errorf("end-to-end metrics: setup_s declared %v, %d metrics", setup, len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}

func sameNames(t *testing.T, got metricSet, want metricSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g.Unit != w.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", name, g, w.Unit)
		}
	}
}

// Every workload emits exactly the declared end-to-end metrics untraced and
// exactly the declared per-layer metrics traced, with no failed op.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			doc, err := run(smallConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, doc.Metrics, newE2E())
			if !doc.Correct || doc.Failed != 0 || doc.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d errors=%v", doc.Correct, doc.Attempted, doc.Failed, doc.Errors)
			}
			for n, v := range doc.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the driver needs it above 0", n, v.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	for _, name := range []string{"sim-compute", "suite"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(t, name)
			cfg.trace = true
			doc, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, doc.Metrics, newLayer())
			if !doc.Correct {
				t.Errorf("errors=%v", doc.Errors)
			}
			for _, n := range []string{"span.op_us", "oblc.compile_ms", "simmach.dispatch_ns_p16", "store.kv_put_us", "hub.push_rtt_us", "fleet.warm_boot_ms",
				"core.dyn_over_best", "core.dyn_cell_ms", "fleet.propagate_p50_us", "fleet.store_put_us"} {
				if doc.Metrics[n].Value <= 0 {
					t.Errorf("%s is %v", n, doc.Metrics[n].Value)
				}
			}
			if name == "suite" && (doc.Metrics["bench.warm_pass_s"].Value <= 0 || doc.Metrics["bench.failed_checks"].Value != 0) {
				t.Errorf("warm passes: %v s, %v failed checks", doc.Metrics["bench.warm_pass_s"].Value, doc.Metrics["bench.failed_checks"].Value)
			}
		})
	}
}

// The correctness checks fire: a corrupted reference result and a tampered
// /run response are each counted as failed ops.
func TestChecksFire(t *testing.T) {
	corrupt := smallConfig(t, "sim-sync")
	corrupt.corrupt = true
	tamper := smallConfig(t, "serve")
	tamper.tamper = true
	for _, cfg := range []config{corrupt, tamper} {
		doc, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Correct || doc.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d; the check did not fire", cfg.workload, doc.Correct, doc.Failed, doc.Attempted)
		}
	}
}

// Spans nest inside their parents, share the parent's op, and their self
// times add up to the op's duration.
func TestSpansNestAndSumToOp(t *testing.T) {
	for _, name := range []string{"sim-sync", "serve"} {
		cfg := smallConfig(t, name)
		cfg.trace = true
		cfg.spans = filepath.Join(t.TempDir(), "spans.json")
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.spans)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatal(err)
		}
		children := 0
		var roots, self int64
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %+v ends before it starts", name, s)
			}
			if s.Parent < 0 {
				roots += s.End - s.Start
				continue
			}
			children++
			p := spans[s.Parent]
			if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %+v does not nest in its parent %+v", name, s, p)
			}
		}
		for _, d := range selfTimes(spans) {
			self += int64(d)
		}
		if children == 0 || self != roots {
			t.Errorf("%s: %d child spans; self times sum to %d ns, ops to %d ns", name, children, self, roots)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(rate float64, failed int) map[string][]*runDoc {
		var docs []*runDoc
		for i := 0; i < 5; i++ {
			m := newE2E()
			for _, e := range endToEnd {
				m.set(e.Name, 10+0.01*float64(i))
			}
			m.set("ops_per_s", rate+0.01*float64(i))
			docs = append(docs, &runDoc{Workload: "w", Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: m})
		}
		return map[string][]*runDoc{"w": docs}
	}
	for _, c := range []struct {
		name string
		b    map[string][]*runDoc
		want int
		text string
	}{
		{"same", set(100, 0), 0, "ok"},
		{"within bound", set(95, 0), 0, "ok"},
		{"slower", set(60, 0), 1, "REGRESSION"},
		{"faster", set(140, 0), 0, "improved"},
		{"more failures", set(100, 3), 1, "REGRESSION"},
	} {
		var out bytes.Buffer
		if got := compareSets(set(100, 0), c.b, &out); got != c.want || !bytes.Contains(out.Bytes(), []byte(c.text)) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", c.name, got, c.want, c.text, out.String())
		}
	}
	// A set noisier than the bound cannot show that a metric stayed put.
	noisy := set(100, 0)
	for i, d := range noisy["w"] {
		d.Metrics.set("ops_per_s", 80+10*float64(i))
	}
	var out bytes.Buffer
	if got := compareSets(set(100, 0), noisy, &out); got != 0 || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("noisy: exit %d:\n%s", got, out.String())
	}
}

// quartiles follows Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16: %v, %v; want 1.5, 12", q1, q3)
	}
}
