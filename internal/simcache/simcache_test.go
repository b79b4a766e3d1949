package simcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/simmach"
)

// sampleResult builds a distinguishable fake result record.
func sampleResult(tag int64) *interp.Result {
	return &interp.Result{
		Time: simmach.Time(tag) * simmach.Second,
		Counters: simmach.Counters{
			Acquires: tag, FailedAcquires: tag * 2,
			LockTime: simmach.Time(tag) * 100, WaitTime: simmach.Time(tag) * 50,
		},
		Output: []string{"42", "3.14159"},
		Sections: []*interp.SectionStats{{
			Name:          "FORCES",
			VersionLabels: []string{"original", "bounded/aggressive"},
			Iterations:    tag * 10,
			ChosenVersion: 1,
			Executions:    []interp.ExecutionStat{{Start: 1, End: 2, Iterations: tag}},
			Samples: []interp.SampleStat{{
				Kind: "sampling", Version: 1, Label: "bounded/aggressive",
				Start: 5, End: 9, Overhead: 0.12345678912345, LockOver: 0.1, WaitOver: 0.02,
			}},
		}},
		Steps: tag * 1000,
	}
}

const keyA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
const keyB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"

func TestMemoryTierHit(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyA); ok {
		t.Fatal("hit on empty cache")
	}
	res := sampleResult(7)
	c.Put(keyA, res)
	got, ok := c.Get(keyA)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got != res {
		t.Error("memory tier did not return the stored pointer")
	}
	st := c.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.Puts != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := sampleResult(3)
	c1.Put(keyA, res)

	// A fresh cache over the same directory — a new process — must hit
	// disk and decode an identical record.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(keyA)
	if !ok {
		t.Fatal("disk tier miss after Put from another cache")
	}
	wantB, _ := EncodeResult(res)
	gotB, _ := EncodeResult(got)
	if !bytes.Equal(wantB, gotB) {
		t.Errorf("disk round-trip not byte-identical:\n%s\n%s", wantB, gotB)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want one disk hit", st)
	}
	// The disk hit is promoted into memory.
	if _, ok := c2.Get(keyA); !ok {
		t.Fatal("miss after promotion")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Errorf("stats = %+v, want one mem hit after promotion", st)
	}
}

func TestCorruptAndSkewedEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	plant := func(key string, data []byte) {
		t.Helper()
		if err := os.WriteFile(c.entryPath(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	good := encodeEntry(keyA, sampleResult(1))
	// Torn entry.
	plant(keyA, good[:len(good)/2])
	if _, ok := c.Get(keyA); ok {
		t.Error("corrupt entry returned a hit")
	}
	// Wrong schema, otherwise whole.
	plant(keyB, entryWithSchema(999, keyB, sampleResult(1)))
	if _, ok := c.Get(keyB); ok {
		t.Error("schema-skewed entry returned a hit")
	}
	// Key mismatch (content-address violation, e.g. renamed file).
	plant(keyB, good)
	if _, ok := c.Get(keyB); ok {
		t.Error("key-mismatched entry returned a hit")
	}
	// A well-formed schema 1 entry, as a cache directory from before the
	// binary form holds them.
	v1, err := json.Marshal(map[string]any{"schema": 1, "key": keyA, "result": sampleResult(1)})
	if err != nil {
		t.Fatal(err)
	}
	plant(keyA, v1)
	if _, ok := c.Get(keyA); ok {
		t.Error("schema 1 JSON entry returned a hit")
	}
	if st := c.Stats(); st.Errors != 4 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 4 tolerated errors, each a miss", st)
	}
	// The re-simulated result overwrites it, for this process and the next.
	c.Put(keyA, sampleResult(1))
	fresh, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(keyA); !ok {
		t.Error("miss after a Put over a schema 1 entry")
	}
}

// TestUnreadableEntryIsACountedError plants a directory where an entry
// belongs: the read fails with something other than "no such file", which
// is a tolerated disk failure, not a plain miss.
func TestUnreadableEntryIsACountedError(t *testing.T) {
	c, err := New(Config{Dir: t.TempDir(), MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(c.entryPath(keyA), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyA); ok {
		t.Fatal("a directory read as a hit")
	}
	if _, ok := c.Get(keyB); ok {
		t.Fatal("hit on an absent entry")
	}
	if st := c.Stats(); st.Errors != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses of which the unreadable one an error", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Config{MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{keyA, keyB, "cccc"}
	for i, k := range keys {
		c.Put(k, sampleResult(int64(i)))
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(keyA); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.Get(keyB); !ok {
		t.Error("recent entry evicted")
	}
	if _, ok := c.Get("cccc"); !ok {
		t.Error("newest entry evicted")
	}
	// Touching keyB makes "cccc" the LRU victim on the next insert.
	c.Get(keyB)
	c.Put("dddd", sampleResult(9))
	if _, ok := c.Get("cccc"); ok {
		t.Error("LRU order ignored: untouched entry survived")
	}
	if _, ok := c.Get(keyB); !ok {
		t.Error("recently touched entry evicted")
	}
}

func TestMemDisabledStillUsesDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(keyA, sampleResult(5))
	if c.Len() != 0 {
		t.Fatalf("memory tier holds %d entries while disabled", c.Len())
	}
	if _, ok := c.Get(keyA); !ok {
		t.Fatal("disk-only cache missed")
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer overlapping keys from several goroutines (run with -race):
	// Get, Put, promotion, eviction, and stats must all be safe, and every
	// observed value must be a complete record.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				c.Put(key, sampleResult(int64(i%5)))
				if res, ok := c.Get(key); ok && len(res.Output) != 2 {
					t.Errorf("torn record observed for %s", key)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Puts != 400 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 400 puts and no errors", st)
	}
}

// wantOnlyEntry fails the test unless dir holds key's entry file and nothing
// else: no temporary sibling left behind.
func wantOnlyEntry(t *testing.T, dir, key string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != key+".json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("dir contents = %v, want exactly one entry file", names)
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(keyA, sampleResult(1))
	c.Put(keyA, sampleResult(2)) // overwrite through rename
	wantOnlyEntry(t, dir, keyA)
	got, ok := c.Get(keyA)
	if !ok || got.Time != 2*simmach.Second {
		t.Errorf("overwrite not visible: ok=%v", ok)
	}
}

// TestConcurrentPutsOfOneKey races writers of a single entry: each must get
// a temporary file of its own (none fails, none is left behind), and what
// the renames leave is one whole entry, whichever writer came last.
func TestConcurrentPutsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				c.Put(keyA, sampleResult(int64(1+g)))
				if _, ok := c.Get(keyA); !ok {
					t.Errorf("writer %d: entry unreadable between puts", g)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Puts != 200 || st.Errors != 0 || st.DiskHits != 200 {
		t.Errorf("stats = %+v, want 200 puts, 200 disk hits and no errors", st)
	}
	wantOnlyEntry(t, dir, keyA)
	got, ok := c.Get(keyA)
	if !ok || got.Counters.Acquires < 1 || got.Counters.Acquires > 8 || len(got.Output) != 2 {
		t.Errorf("final entry not one writer's whole record: ok=%v, %+v", ok, got)
	}
}

// BenchmarkPut is one new entry written to both tiers: encode, the exclusive
// create of the temporary sibling, write, rename. Every key is fresh, as in
// a content-addressed cache nearly every put is (a rename over an existing
// file is another cost: ext4 flushes the data first).
func BenchmarkPut(b *testing.B) {
	c, err := New(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	res := sampleResult(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(fmt.Sprintf("%064x", i), res)
	}
	if st := c.Stats(); st.Errors != 0 {
		b.Fatalf("%d of %d puts failed", st.Errors, st.Puts)
	}
}

// BenchmarkDecodeEntry is the disk tier's share of a hit once the file is
// read: checksum, walk, allocate the record.
func BenchmarkDecodeEntry(b *testing.B) {
	data := encodeEntry(keyA, sampleResult(1))
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := decodeEntry(data, keyA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetDisk is a hit the memory tier does not hold: read and decode.
func BenchmarkGetDisk(b *testing.B) {
	c, err := New(Config{Dir: b.TempDir(), MemEntries: -1})
	if err != nil {
		b.Fatal(err)
	}
	c.Put(keyA, sampleResult(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keyA); !ok {
			b.Fatal("miss")
		}
	}
}
