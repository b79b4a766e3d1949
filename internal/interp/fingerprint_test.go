package interp

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
	"repro/internal/perturb"
	"repro/internal/simmach"
	"repro/oblc"
)

const fpSrc = `
func main() {
  let s: int = 0;
  for i in 0..100 { s = s + i; }
  print s;
}
`

const fpSrcOther = `
func main() {
  let s: int = 0;
  for i in 0..101 { s = s + i; }
  print s;
}
`

func TestFingerprintStableAcrossCompiles(t *testing.T) {
	a, err := oblc.Compile(fpSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := oblc.Compile(fpSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Serial == b.Serial {
		t.Fatal("expected distinct program pointers")
	}
	fa, fb := Fingerprint(a.Serial), Fingerprint(b.Serial)
	if fa != fb {
		t.Errorf("identical source produced different fingerprints:\n%s\n%s", fa, fb)
	}
	if len(fa) != 64 {
		t.Errorf("fingerprint length = %d, want 64 hex chars", len(fa))
	}
	// Memoized per program pointer.
	if again := Fingerprint(a.Serial); again != fa {
		t.Errorf("fingerprint not stable on recompute: %s vs %s", again, fa)
	}
}

func TestFingerprintDistinguishesPrograms(t *testing.T) {
	a, err := oblc.Compile(fpSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := oblc.Compile(fpSrcOther)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a.Serial) == Fingerprint(b.Serial) {
		t.Error("different programs share a fingerprint")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	c, err := oblc.Compile(fpSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Procs: 4, Policy: "dynamic"}
	k0, ok := CacheKey(c.Serial, base)
	if !ok {
		t.Fatal("CacheKey not ok for plain options")
	}
	// Identical options give the identical key.
	if k1, _ := CacheKey(c.Serial, base); k1 != k0 {
		t.Errorf("same options produced different keys")
	}
	// Defaulted and explicit forms of the same run share a key.
	explicit := base
	explicit.TargetSampling = 10 * 1e6 // the default 10ms
	if k1, _ := CacheKey(c.Serial, explicit); k1 != k0 {
		t.Errorf("defaulted and explicit equivalent options differ")
	}
	// Every semantically meaningful change must move the key.
	variants := []Options{
		{Procs: 8, Policy: "dynamic"},
		{Procs: 4, Policy: "original"},
		{Procs: 4, Policy: "dynamic", TargetSampling: 20 * 1e6},
		{Procs: 4, Policy: "dynamic", EarlyCutoff: true},
		{Procs: 4, Policy: "dynamic", AsyncSwitch: true},
		{Procs: 4, Policy: "dynamic", Params: map[string]int64{"n": 7}},
		{Procs: 4, Policy: "dynamic", InstrumentationCost: 40},
	}
	seen := map[string]int{k0: -1}
	for i, v := range variants {
		k, ok := CacheKey(c.Serial, v)
		if !ok {
			t.Fatalf("variant %d not cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}
	// Traced runs are not cacheable.
	traced := base
	traced.Trace = func(simmach.TraceEvent) {}
	if _, ok := CacheKey(c.Serial, traced); ok {
		t.Error("traced run reported cacheable")
	}
}

// TestCacheKeyIncludesPerturbSchedule guards against the silent stale-hit
// bug: two runs that differ only in their perturbation schedule must never
// share a cache entry, while the nil and empty schedules (and a schedule
// differing only in its cosmetic Name) must address the same simulation.
func TestCacheKeyIncludesPerturbSchedule(t *testing.T) {
	c, err := oblc.Compile(fpSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Procs: 4, Policy: "dynamic"}
	k0, ok := CacheKey(c.Serial, base)
	if !ok {
		t.Fatal("CacheKey not ok for plain options")
	}

	perturbed := base
	perturbed.Perturb = &perturb.Schedule{Changes: []perturb.Change{
		{At: 100 * simmach.Millisecond, AcquireMilli: 4000},
	}}
	kp, ok := CacheKey(c.Serial, perturbed)
	if !ok {
		t.Fatal("perturbed run not cacheable")
	}
	if kp == k0 {
		t.Error("perturbed and unperturbed runs share a cache key")
	}

	later := base
	later.Perturb = &perturb.Schedule{Changes: []perturb.Change{
		{At: 200 * simmach.Millisecond, AcquireMilli: 4000},
	}}
	if kl, _ := CacheKey(c.Serial, later); kl == kp {
		t.Error("schedules differing only in change time share a cache key")
	}

	empty := base
	empty.Perturb = &perturb.Schedule{Name: "noop"}
	if ke, _ := CacheKey(c.Serial, empty); ke != k0 {
		t.Error("empty schedule addressed differently from nil schedule")
	}

	renamed := perturbed
	renamed.Perturb = &perturb.Schedule{Name: "other", Changes: perturbed.Perturb.Changes}
	if kr, _ := CacheKey(c.Serial, renamed); kr != kp {
		t.Error("cosmetic schedule Name changed the cache key")
	}
}

// TestContentAddressGolden pins the exact fingerprint and cache key of two
// cells: the addresses of results already stored in -simcache directories.
// An encoder change that moves either orphans every stored entry, so it
// must be deliberate (bump the version string and update these values).
func TestContentAddressGolden(t *testing.T) {
	water, err := apps.Compile(apps.NameWater)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	crossover, ok := perturb.Scenario("crossover")
	if !ok {
		t.Fatal("no crossover scenario")
	}
	for _, c := range []struct {
		name    string
		prog    *ir.Program
		opts    Options
		fp, key string
	}{
		{"water original p8 unperturbed", water.Parallel,
			Options{Procs: 8, Policy: "original", Params: apps.TestParams(apps.NameWater)},
			"63437a8b4a2308a349d7085bdd38bd686f0186623280cb383ff082a3fc295887",
			"a8ea7dfa131766aa16c5e4f7fab279c07ce7fd3936f40618a910600f1321af7e"},
		{"barneshut dynamic p16 crossover ucb early-cutoff", bh.Parallel,
			Options{Procs: 16, Policy: PolicyDynamic, Controller: "ucb", EarlyCutoff: true,
				TargetSampling: 2 * simmach.Millisecond, Perturb: crossover,
				Params: map[string]int64{"nbodies": 96, "serialwork": 2345}},
			"d6e0631733cf80bf1c8ded9bbcb386566b82c157c2f737af79b5352c0c2ffc35",
			"de9e2f8ce9acd435cd017bf90c27ab2a084667dc3e41971eb22be4755018fc8c"},
	} {
		if fp := Fingerprint(c.prog); fp != c.fp {
			t.Errorf("%s: Fingerprint = %s, want %s", c.name, fp, c.fp)
		}
		if key, ok := CacheKey(c.prog, c.opts); !ok || key != c.key {
			t.Errorf("%s: CacheKey = %s (ok %v), want %s", c.name, key, ok, c.key)
		}
	}
}

// BenchmarkCacheKey is the content address of a dfperf serve cell: a
// Water dynamic run over TestParams with two overrides, as dfserved derives
// it on every cached /run.
func BenchmarkCacheKey(b *testing.B) {
	water, err := apps.Compile(apps.NameWater)
	if err != nil {
		b.Fatal(err)
	}
	params := apps.TestParams(apps.NameWater)
	params["nmol"], params["serialwork"] = 12, 2345
	opts := Options{Procs: 8, Policy: PolicyDynamic, Params: params,
		TargetSampling: 5 * simmach.Millisecond, TargetProduction: 2 * simmach.Second}
	Fingerprint(water.Parallel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := CacheKey(water.Parallel, opts); !ok {
			b.Fatal("not cacheable")
		}
	}
}
