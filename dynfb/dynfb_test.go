package dynfb

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// spin burns roughly d of CPU without sleeping, so measurements reflect
// busy time on any scheduler.
func spin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}

func TestNewSectionValidation(t *testing.T) {
	if _, err := NewSection(Config{}); err == nil {
		t.Error("no variants accepted")
	}
	if _, err := NewSection(Config{}, Variant{Name: "x"}); err == nil {
		t.Error("nil body accepted")
	}
	s, err := NewSection(Config{}, Variant{Name: "ok", Body: func(*Ctx, int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Workers <= 0 || s.cfg.TargetSampling <= 0 || s.cfg.TargetProduction <= 0 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
	if s.pairCost <= 0 {
		t.Error("lock pair cost not calibrated")
	}
}

func TestAllIterationsExecuteExactlyOnce(t *testing.T) {
	const n = 5000
	var touched [n]int32
	body := func(ctx *Ctx, i int) {
		atomic.AddInt32(&touched[i], 1)
	}
	s, err := NewSection(Config{
		Workers: 4, TargetSampling: time.Millisecond, TargetProduction: 5 * time.Millisecond,
	},
		Variant{Name: "a", Body: body},
		Variant{Name: "b", Body: body},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, n)
	for i := range touched {
		if touched[i] != 1 {
			t.Fatalf("iteration %d executed %d times", i, touched[i])
		}
	}
}

func TestEmptyRange(t *testing.T) {
	ran := int32(0)
	s, err := NewSection(Config{Workers: 2}, Variant{Name: "a", Body: func(*Ctx, int) {
		atomic.AddInt32(&ran, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5, 5)
	s.Run(7, 3)
	if ran != 0 {
		t.Errorf("body ran %d times on empty ranges", ran)
	}
}

func TestMutexProtectsCounter(t *testing.T) {
	// A shared counter incremented under an instrumented mutex must come
	// out exact: Lock/Unlock provide real mutual exclusion.
	mu := &Mutex{}
	var count int64
	sec, err := NewSection(Config{Workers: 4, TargetSampling: time.Millisecond},
		Variant{Name: "locked", Body: func(ctx *Ctx, i int) {
			ctx.Lock(mu)
			count++
			ctx.Unlock(mu)
		}})
	if err != nil {
		t.Fatal(err)
	}
	sec.Run(0, 20000)
	if count != 20000 {
		t.Errorf("count = %d, want 20000 (mutual exclusion violated)", count)
	}
}

func TestSelectsLowOverheadVariantByInjectedOverhead(t *testing.T) {
	// Variant "wasteful" reports large explicit overhead; "lean" reports
	// none. The controller must sample both and choose "lean" — this is
	// deterministic on any machine.
	work := func(ctx *Ctx, i int) { spin(50 * time.Microsecond) }
	s, err := NewSection(Config{
		Workers:          2,
		TargetSampling:   2 * time.Millisecond,
		TargetProduction: time.Hour,
	},
		Variant{Name: "wasteful", Body: func(ctx *Ctx, i int) {
			work(ctx, i)
			ctx.AddOverhead(40 * time.Microsecond)
		}},
		Variant{Name: "lean", Body: work},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 2000)
	samples := s.Samples()
	if len(samples) < 3 {
		t.Fatalf("samples = %+v, want sampling×2 + production/partial", samples)
	}
	var sawProduction bool
	for _, smp := range samples {
		if smp.Kind == "production" || smp.Kind == "partial" {
			if smp.Name != "lean" && smp.Kind == "production" {
				t.Errorf("production variant = %s, want lean", smp.Name)
			}
			sawProduction = true
		}
	}
	if !sawProduction {
		t.Error("no production interval recorded")
	}
	if got := s.ctl.PolicyName(s.BestKnown()); got != "lean" {
		t.Errorf("BestKnown = %s, want lean", got)
	}
	st := s.VariantStats()
	if st[1].TimesChosen < 1 {
		t.Errorf("lean never chosen: %+v", st)
	}
}

func TestAdaptsWhenEnvironmentChanges(t *testing.T) {
	// The environment flips which variant is wasteful; with spanning
	// intervals and a short production interval the section must resample
	// and switch (the paper's core adaptivity claim).
	var phase int32 // 0: variant a wasteful; 1: variant b wasteful
	mk := func(idx int32) func(*Ctx, int) {
		return func(ctx *Ctx, i int) {
			spin(30 * time.Microsecond)
			if atomic.LoadInt32(&phase) == idx {
				ctx.AddOverhead(50 * time.Microsecond)
			}
		}
	}
	s, err := NewSection(Config{
		Workers:          2,
		TargetSampling:   2 * time.Millisecond,
		TargetProduction: 10 * time.Millisecond,
		SpanExecutions:   true,
	},
		Variant{Name: "a", Body: mk(0)},
		Variant{Name: "b", Body: mk(1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 3000)
	first := s.ctl.PolicyName(s.BestKnown())
	if first != "b" {
		t.Logf("first selection = %s (timing-dependent; samples %+v)", first, s.Samples())
	}
	atomic.StoreInt32(&phase, 1)
	// Keep running; resampling must eventually prefer "a".
	deadline := time.Now().Add(3 * time.Second)
	adapted := false
	for time.Now().Before(deadline) {
		s.Run(0, 3000)
		if s.ctl.PolicyName(s.BestKnown()) == "a" {
			adapted = true
			break
		}
	}
	if !adapted {
		t.Errorf("never adapted to environment change; stats %+v", s.VariantStats())
	}
}

func TestEarlyCutoffSkipsRemainingVariants(t *testing.T) {
	body := func(ctx *Ctx, i int) { spin(20 * time.Microsecond) }
	s, err := NewSection(Config{
		Workers:          2,
		TargetSampling:   2 * time.Millisecond,
		TargetProduction: time.Hour,
		EarlyCutoff:      true,
	},
		Variant{Name: "first", Body: body, Cutoff: CutoffWaiting},
		Variant{Name: "second", Body: body},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 1500)
	for _, smp := range s.Samples() {
		if smp.Kind == "sampling" && smp.Name == "second" {
			t.Errorf("second variant was sampled despite cut-off: %+v", s.Samples())
		}
	}
}

func TestSamplesContiguousAndLabeled(t *testing.T) {
	body := func(ctx *Ctx, i int) { spin(10 * time.Microsecond) }
	s, err := NewSection(Config{
		Workers: 2, TargetSampling: time.Millisecond, TargetProduction: 4 * time.Millisecond,
	},
		Variant{Name: "x", Body: body}, Variant{Name: "y", Body: body},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 4000)
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i, smp := range samples {
		if smp.End < smp.Start {
			t.Errorf("sample %d has End < Start: %+v", i, smp)
		}
		if smp.Overhead < 0 || smp.Overhead > 1 {
			t.Errorf("sample %d overhead out of [0,1]: %v", i, smp.Overhead)
		}
		if smp.Name == "" || smp.Kind == "" {
			t.Errorf("sample %d unlabeled: %+v", i, smp)
		}
	}
}

func TestContentionDrivesSelection(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs for real lock contention")
	}
	shared := &Mutex{}
	var sink int64
	coarse := func(ctx *Ctx, i int) {
		ctx.Lock(shared)
		spin(60 * time.Microsecond)
		sink++
		ctx.Unlock(shared)
	}
	fine := func(ctx *Ctx, i int) {
		spin(60 * time.Microsecond)
		ctx.Lock(shared)
		sink++
		ctx.Unlock(shared)
	}
	s, err := NewSection(Config{
		Workers:          4,
		TargetSampling:   3 * time.Millisecond,
		TargetProduction: time.Hour,
	},
		Variant{Name: "coarse", Body: coarse},
		Variant{Name: "fine", Body: fine},
	)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 3000)
	if got := s.ctl.PolicyName(s.BestKnown()); got != "fine" {
		t.Errorf("BestKnown = %s, want fine; stats %+v", got, s.VariantStats())
	}
}

func TestAutoTunePassThrough(t *testing.T) {
	body := func(ctx *Ctx, i int) { spin(10 * time.Microsecond) }
	s, err := NewSection(Config{
		Workers: 2, TargetSampling: time.Millisecond,
		TargetProduction: time.Hour, AutoTuneProduction: true,
	},
		Variant{Name: "a", Body: body}, Variant{Name: "b", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 5000)
	// With auto-tuning and a calm workload, the first production interval
	// must have been derived from the history rather than the 1h setting;
	// the run completing at all (with production samples recorded in
	// bounded time) is the observable effect here. Just assert history
	// exists and the controller accepted the option.
	if len(s.Samples()) == 0 {
		t.Fatal("no samples")
	}
}

func TestRecommendedProduction(t *testing.T) {
	body := func(ctx *Ctx, i int) { spin(20 * time.Microsecond) }
	s, err := NewSection(Config{
		Workers: 2, TargetSampling: time.Millisecond, TargetProduction: 5 * time.Millisecond,
	},
		Variant{Name: "a", Body: body}, Variant{Name: "b", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RecommendedProduction(); ok {
		t.Error("recommendation before any samples")
	}
	s.Run(0, 8000)
	rec, ok := s.RecommendedProduction()
	if !ok {
		t.Fatal("no recommendation after a run with several rounds")
	}
	if rec < time.Millisecond {
		t.Errorf("recommendation %v below sampling interval", rec)
	}
}

// TestReadersDuringRun calls every exported reader of a section while Run's
// switch barrier moves the controller through its phases; run under -race
// it checks that each reader takes the section lock.
func TestReadersDuringRun(t *testing.T) {
	body := func(ctx *Ctx, i int) { ctx.AddOverhead(time.Duration(i % 3)) }
	s, err := NewSection(Config{Workers: 2, TargetSampling: 50 * time.Microsecond, TargetProduction: 200 * time.Microsecond},
		Variant{Name: "a", Body: body}, Variant{Name: "b", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.VariantStats()
				_ = s.Samples()
				_ = s.BestKnown()
				_, _ = s.LastChosen()
				_, _ = s.RecommendedProduction()
				_ = s.StatsSnapshot()
				_ = s.WarmStarted()
			}
		}
	}()
	for i := 0; i < 20; i++ {
		s.Run(0, 20000)
	}
	close(stop)
	<-done
	if len(s.VariantStats()) != 2 {
		t.Errorf("stats = %+v", s.VariantStats())
	}
}

func TestVariantStatsShape(t *testing.T) {
	body := func(ctx *Ctx, i int) { spin(5 * time.Microsecond) }
	s, err := NewSection(Config{Workers: 2, TargetSampling: time.Millisecond},
		Variant{Name: "only", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(0, 500)
	st := s.VariantStats()
	if len(st) != 1 || st[0].Name != "only" {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].TimesSampled < 1 {
		t.Errorf("TimesSampled = %d", st[0].TimesSampled)
	}
}
