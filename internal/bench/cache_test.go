package bench

import (
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/perturb"
	"repro/internal/simcache"
)

// TestCacheColdWarmParallelByteIdentical is the determinism regression
// test for the content-addressed simulation cache: the full quick suite
// rendered cold (populating the cache), warm serially (pure hits), and
// warm with experiment- and cell-level parallelism must agree byte for
// byte — and all three must match the committed golden, so cached replay
// and the live engine pin the same simulated science.
func TestCacheColdWarmParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full quick suite; run without -short")
	}
	if raceEnabled {
		t.Skip("quick-suite renders are an order of magnitude slower under the race detector")
	}
	cache, err := simcache.New(simcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	base := SuiteConfig{Quick: true, Procs: []int{1, 4, 8}, Cache: cache}

	cfg := base
	cfg.Parallelism = 1
	cold := renderSuiteCfg(t, cfg)
	afterCold := cache.Stats()
	if afterCold.Puts == 0 || afterCold.Misses == 0 {
		t.Fatalf("cold pass did not populate the cache: %+v", afterCold)
	}

	warm := renderSuiteCfg(t, cfg)
	diffLines(t, cold, warm, "cold", "warm serial")
	afterWarm := cache.Stats()
	if afterWarm.Hits() == 0 {
		t.Fatalf("warm pass did not hit the cache: %+v", afterWarm)
	}
	// A warm pass simulates nothing: every cell of every experiment is
	// looked up (one hit per entry the cold pass wrote) and none misses.
	if hits := afterWarm.Hits() - afterCold.Hits(); hits < afterCold.Puts {
		t.Errorf("warm pass looked up %d cells, cold pass wrote %d", hits, afterCold.Puts)
	}

	cfg8 := base
	cfg8.Parallelism = 8
	warm8 := renderSuiteCfg(t, cfg8)
	diffLines(t, cold, warm8, "cold", "warm parallel-8")
	if st := cache.Stats(); st.Misses != afterCold.Misses || st.Puts != afterCold.Puts {
		t.Errorf("warm passes simulated: cold %+v, after both warm passes %+v", afterCold, st)
	}

	if golden, err := os.ReadFile(goldenPath); err == nil {
		diffLines(t, string(golden), cold, "golden", "cold cached suite")
	}
}

// cellKey returns the content address the suite derives for one cell, so
// tests can poison or inspect the cache from outside.
func cellKey(t *testing.T, s *Suite, sp RunSpec) string {
	t.Helper()
	_, _, key, err := s.resolve(sp)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCacheVerifyPassesOnHonestCache exercises the verify path on one
// cell: a second suite sharing the cache re-simulates the hit,
// byte-compares it against the cached record, and succeeds.
func TestCacheVerifyPassesOnHonestCache(t *testing.T) {
	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := interp.Options{Procs: 2, Policy: "original"}

	s1 := NewSuite(SuiteConfig{Quick: true, Parallelism: 1, Cache: cache})
	res1, err := s1.Run(apps.NameBarnesHut, opts)
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewSuite(SuiteConfig{Quick: true, Parallelism: 1, Cache: cache, CacheVerify: true})
	res2, err := s2.Run(apps.NameBarnesHut, opts)
	if err != nil {
		t.Fatalf("verify rejected an honest cache: %v", err)
	}
	if res2 != res1 {
		t.Error("verified hit did not return the cached record")
	}
	if st := cache.Stats(); st.MemHits != 1 {
		t.Errorf("stats = %+v, want exactly one hit", st)
	}
}

// TestCacheVerifyDetectsPoisonedEntry poisons the cache under a cell's true
// content address and checks that the verify pass refuses to serve it: for
// a shared table cell, and for the ablations' flag-dispatch-program and
// explicit-parameter cells, which no table shares.
func TestCacheVerifyDetectsPoisonedEntry(t *testing.T) {
	shared := RunSpec{App: apps.NameBarnesHut, Opts: interp.Options{Procs: 2, Policy: "original"}}
	for _, tc := range []struct {
		name   string
		poison RunSpec
		run    func(*Suite) error
	}{
		{"shared cell", shared,
			func(s *Suite) error { _, err := s.Run(shared.App, shared.Opts); return err }},
		{"ablation-flags flagged cell",
			RunSpec{App: apps.NameWater, Prog: progFlagged, Opts: interp.Options{Procs: 8, Policy: "aggressive"}},
			func(s *Suite) error { return ablationFlags(s, &Report{}) }},
		{"ablation-span cell", spanningCells()[1],
			func(s *Suite) error { return ablationSpan(s, &Report{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := simcache.New(simcache.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSuite(SuiteConfig{Quick: true, Parallelism: 1, Cache: cache, CacheVerify: true})
			poisoned := &interp.Result{Time: 12345, Steps: 1, Output: []string{"wrong"}}
			cache.Put(cellKey(t, s, tc.poison), poisoned)

			if err := tc.run(s); err == nil {
				t.Fatal("verify served a poisoned cache entry")
			} else if !strings.Contains(err.Error(), "differs from fresh simulation") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestRunsKeysOnEveryOption checks the memo addresses cells by content:
// two specs that differ in any one option are distinct cells, including
// the options no table varies.
func TestRunsKeysOnEveryOption(t *testing.T) {
	base := interp.Options{Procs: 2, Policy: "original", Params: apps.TestParams(apps.NameBarnesHut)}
	for _, tc := range []struct {
		name string
		vary func(*interp.Options)
	}{
		{"Perturb", func(o *interp.Options) { o.Perturb = perturb.Ramp() }},
		{"Params", func(o *interp.Options) { o.Params = map[string]int64{"nbodies": 32} }},
		{"DetectRaces", func(o *interp.Options) { o.DetectRaces = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			varied := base
			tc.vary(&varied)
			s := NewSuite(SuiteConfig{Parallelism: 1})
			res, err := s.Runs([]RunSpec{{App: apps.NameBarnesHut, Opts: base}, {App: apps.NameBarnesHut, Opts: varied}})
			if err != nil {
				t.Fatal(err)
			}
			if res[0] == res[1] {
				t.Errorf("specs differing only in %s were served one memoized result", tc.name)
			}
		})
	}
}
