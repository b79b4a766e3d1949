package repro

// One sub-benchmark per experiment of the paper's evaluation and of its
// ablations and adaptivity scenarios (bench.Experiments), so an experiment
// cannot lack one. Each regenerates its experiment on the simulated machine,
// fails if a qualitative shape check fails, and reports the check counts as
// custom metrics.
//
// The sub-benchmarks share one memoized suite, like the harness in
// internal/bench; set REPRO_FULL=1 to run at full evaluation scale
// (cmd/dfbench runs full scale by default and prints the tables).

import (
	"os"
	"testing"

	"repro/dynfb"
	"repro/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	s := bench.NewSuite(bench.SuiteConfig{Quick: os.Getenv("REPRO_FULL") == "", Procs: []int{1, 2, 4, 6, 8, 12, 16}})
	for _, e := range bench.Experiments() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			var rep *bench.Report
			var err error
			for i := 0; i < b.N; i++ {
				if rep, err = e.Run(s); err != nil {
					b.Fatal(err)
				}
			}
			passed, failed := 0, 0
			for _, c := range rep.Checks {
				if c.OK {
					passed++
				} else {
					failed++
					b.Errorf("shape check failed: %s: %s", c.Name, c.Detail)
				}
			}
			b.ReportMetric(float64(passed), "checks-passed")
			b.ReportMetric(float64(failed), "checks-failed")
		})
	}
}

// BenchmarkDynfbDispatch measures the real-time library's per-iteration
// overhead: claim + body dispatch + switch-point poll, single variant.
func BenchmarkDynfbDispatch(b *testing.B) {
	sec, err := dynfb.NewSection(dynfb.Config{Workers: 1},
		dynfb.Variant{Name: "noop", Body: func(ctx *dynfb.Ctx, i int) {}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sec.Run(0, b.N)
}

// BenchmarkDynfbInstrumentedLock measures the instrumented mutex against
// the work it meters.
func BenchmarkDynfbInstrumentedLock(b *testing.B) {
	mu := dynfb.NewMutex()
	var count int64
	sec, err := dynfb.NewSection(dynfb.Config{Workers: 1},
		dynfb.Variant{Name: "locked", Body: func(ctx *dynfb.Ctx, i int) {
			ctx.Lock(mu)
			count++
			ctx.Unlock(mu)
		}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sec.Run(0, b.N)
	if count == 0 {
		b.Fatal("no work done")
	}
}
