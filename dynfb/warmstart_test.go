package dynfb

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/dynfb/store"
)

// leanAndWaste builds a two-variant workload with an unambiguous winner:
// "lean" reports no overhead, "waste" charges far more overhead than its
// busy time at every iteration.
func leanAndWaste() []Variant {
	body := func(ctx *Ctx, i int) { spin(20 * time.Microsecond) }
	return []Variant{
		{Name: "lean", Body: body},
		{Name: "waste", Body: func(ctx *Ctx, i int) {
			body(ctx, i)
			ctx.AddOverhead(200 * time.Microsecond)
		}},
	}
}

// samplingBeforeFirstProduction counts the sampling intervals before the
// section first left the sampling phase. A production interval cut short
// by the end of the run is recorded as "partial", so any non-sampling
// record marks the production entry.
func samplingBeforeFirstProduction(t *testing.T, s *Section) int {
	t.Helper()
	samples := s.Samples()
	for n, smp := range samples {
		if smp.Kind != "sampling" {
			if n == 0 {
				t.Fatalf("first interval is %q, want sampling", smp.Kind)
			}
			return n
		}
	}
	t.Fatalf("no production interval in %d samples", len(samples))
	return 0
}

func warmConfig(b store.Backend) Config {
	return Config{
		Name:             "lean-vs-waste",
		Store:            store.NewTenantStore(b, ""),
		Workers:          2,
		TargetSampling:   2 * time.Millisecond,
		TargetProduction: 200 * time.Millisecond,
	}
}

// TestWarmStartShortensSampling is the subsystem's acceptance test: a
// restarted process with a warm store reaches its production phase after
// sampling only the recorded winner, instead of every variant, and picks
// the same winner.
func TestWarmStartShortensSampling(t *testing.T) {
	st, err := store.OpenFile(filepath.Join(t.TempDir(), "policies.json"))
	if err != nil {
		t.Fatal(err)
	}
	const iters = 4000

	// Cold start: the first process must sample every variant.
	cold, err := NewSection(warmConfig(st), leanAndWaste()...)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted() {
		t.Fatal("cold section claims warm start against an empty store")
	}
	cold.Run(0, iters)
	if n := samplingBeforeFirstProduction(t, cold); n < 2 {
		t.Fatalf("cold start sampled %d intervals before production, want every variant", n)
	}
	coldWinner, ok := cold.LastChosen()
	if !ok {
		t.Fatal("cold run entered no production phase")
	}
	if name := cold.VariantStats()[coldWinner].Name; name != "lean" {
		t.Fatalf("cold winner = %s, want lean", name)
	}
	// Run persists automatically; the record must be on disk now.
	rec, found, err := cold.cfg.Store.Load("lean-vs-waste", cold.fp)
	if err != nil || !found {
		t.Fatalf("no persisted record: found=%v err=%v", found, err)
	}
	if rec.Winner != "lean" {
		t.Fatalf("persisted winner = %s, want lean", rec.Winner)
	}

	// "Restart": a fresh process opens the same store file.
	st2, err := store.OpenFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warmConfig(st2)
	cfg.WarmStart = true
	warm, err := NewSection(cfg, leanAndWaste()...)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted() {
		t.Fatal("matching record did not warm-start the section")
	}
	warm.Run(0, iters)
	warmWinner, ok := warm.LastChosen()
	if !ok {
		t.Fatal("warm run entered no production phase")
	}
	if name := warm.VariantStats()[warmWinner].Name; name != "lean" {
		t.Errorf("warm winner = %s, want the persisted winner lean", name)
	}
	// The measurable benefit: the first round samples only the winner.
	if n := samplingBeforeFirstProduction(t, warm); n != 1 {
		t.Errorf("warm start sampled %d intervals before production, want 1", n)
	}
	snap := warm.StatsSnapshot()
	if !snap.WarmStarted || snap.Winner != "lean" {
		t.Errorf("snapshot = %+v, want warm-started lean winner", snap)
	}
}

func TestWarmStartFingerprintMismatchFallsBackToFullSampling(t *testing.T) {
	st := store.NewMemStore()
	cold, err := NewSection(warmConfig(st), leanAndWaste()...)
	if err != nil {
		t.Fatal(err)
	}
	cold.Run(0, 4000)
	if _, found, _ := cold.cfg.Store.Load("lean-vs-waste", cold.fp); !found {
		t.Fatal("no persisted record")
	}

	// Same store, different worker count: the fingerprint must not match.
	cfg := warmConfig(st)
	cfg.WarmStart = true
	cfg.Workers = 1
	other, err := NewSection(cfg, leanAndWaste()...)
	if err != nil {
		t.Fatal(err)
	}
	if other.WarmStarted() {
		t.Error("record learned at 2 workers warm-started a 1-worker section")
	}
	other.Run(0, 4000)
	if n := samplingBeforeFirstProduction(t, other); n < 2 {
		t.Errorf("mismatched fingerprint sampled %d intervals, want full sampling", n)
	}

	// Same worker count, different variant set: also a miss.
	cfg = warmConfig(st)
	cfg.WarmStart = true
	extra := append(leanAndWaste(), Variant{Name: "third", Body: func(ctx *Ctx, i int) {}})
	third, err := NewSection(cfg, extra...)
	if err != nil {
		t.Fatal(err)
	}
	if third.WarmStarted() {
		t.Error("record for a two-variant set warm-started a three-variant section")
	}
}

// TestReseedSeedsLiveSection exercises the fleet's live warm-start path: a
// section booted against an empty store cannot warm-start, but once a peer
// publishes a winner to the shared store, Reseed picks it up and the next
// run samples only the winner.
func TestReseedSeedsLiveSection(t *testing.T) {
	st := store.NewMemStore()
	cfg := warmConfig(st)
	cfg.WarmStart = true
	late, err := NewSection(cfg, leanAndWaste()...)
	if err != nil {
		t.Fatal(err)
	}
	if late.WarmStarted() {
		t.Fatal("section warm-started against an empty store")
	}
	if late.Reseed() {
		t.Fatal("Reseed claimed success against an empty store")
	}

	// A peer learns the winner and publishes it to the shared store.
	cold, err := NewSection(warmConfig(st), leanAndWaste()...)
	if err != nil {
		t.Fatal(err)
	}
	cold.Run(0, 4000)
	if _, found, _ := cold.cfg.Store.Load("lean-vs-waste", cold.fp); !found {
		t.Fatal("peer run persisted nothing")
	}

	if !late.Reseed() {
		t.Fatal("Reseed missed the peer's record")
	}
	if !late.WarmStarted() {
		t.Error("Reseed did not mark the section warm")
	}
	if late.Reseed() {
		t.Error("second Reseed claimed to seed again")
	}
	late.Run(0, 4000)
	if n := samplingBeforeFirstProduction(t, late); n != 1 {
		t.Errorf("reseeded section sampled %d intervals before production, want 1", n)
	}
	if w, ok := late.LastChosen(); !ok || late.VariantStats()[w].Name != "lean" {
		t.Errorf("reseeded winner not the fleet's: ok=%v", ok)
	}

	// A section that already found its own winner must refuse a reseed.
	if cold.Reseed() {
		t.Error("Reseed overwrote a section's own winner")
	}
}

// TestConcurrentSectionsSharedStore exercises concurrent Section writers
// against one FileStore, with StatsSnapshot readers in flight; run under
// -race this checks the locking of the whole persistence path.
func TestConcurrentSectionsSharedStore(t *testing.T) {
	st, err := store.OpenFile(filepath.Join(t.TempDir(), "policies.json"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Section {
		cfg := warmConfig(st)
		cfg.Name = name
		s, err := NewSection(cfg, leanAndWaste()...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	secs := []*Section{mk("alpha"), mk("beta"), mk("gamma")}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, s := range secs {
		readers.Add(1)
		go func(s *Section) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.StatsSnapshot()
					_ = s.Persist()
				}
			}
		}(s)
	}
	var runs sync.WaitGroup
	for _, s := range secs {
		runs.Add(1)
		go func(s *Section) {
			defer runs.Done()
			for i := 0; i < 3; i++ {
				s.Run(0, 1500)
			}
		}(s)
	}
	runs.Wait()
	close(stop)
	readers.Wait()
	keys, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0].Section != "alpha" || keys[1].Section != "beta" || keys[2].Section != "gamma" {
		t.Errorf("store keys = %v, want alpha beta gamma", keys)
	}
}

func TestConfigValidation(t *testing.T) {
	ok := Variant{Name: "ok", Body: func(*Ctx, int) {}}
	cases := map[string]Config{
		"negative workers":        {Workers: -1},
		"absurd workers":          {Workers: maxWorkers + 1},
		"negative sampling":       {TargetSampling: -time.Millisecond},
		"negative production":     {TargetProduction: -time.Second},
		"sampling > production":   {TargetSampling: time.Second, TargetProduction: time.Millisecond},
		"negative lock pair cost": {LockPairCost: -time.Nanosecond},
		"warm start sans store":   {WarmStart: true},
		"store sans name":         {Store: store.NewTenantStore(store.NewMemStore(), "")},
	}
	for name, cfg := range cases {
		if _, err := NewSection(cfg, ok); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	dup := Variant{Name: "ok", Body: func(*Ctx, int) {}}
	if _, err := NewSection(Config{}, ok, dup); err == nil {
		t.Error("duplicate variant names accepted")
	}
	// Explicit names may not collide with generated placeholder names
	// either, since store records are keyed by name.
	if _, err := NewSection(Config{}, Variant{Body: func(*Ctx, int) {}}, Variant{Name: "variant0", Body: func(*Ctx, int) {}}); err == nil {
		t.Error("collision with generated variant name accepted")
	}
}
