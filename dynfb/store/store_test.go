package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func sampleRecord(section string) Record {
	return Record{
		Section:        section,
		Fingerprint:    Fingerprint{GoMaxProcs: 8, Workers: 4, VariantsHash: VariantsHash([]string{"a", "b"})},
		Winner:         "a",
		WinnerOverhead: 0.125,
		Rounds:         3,
		Policies: []PolicyRecord{
			{Name: "a", TimesSampled: 3, TimesChosen: 3, MeanOverhead: 0.12, LastOverhead: 0.125},
			{Name: "b", TimesSampled: 3, TimesChosen: 0, MeanOverhead: 0.4, LastOverhead: 0.39},
		},
		UpdatedUnix: 1700000000,
	}
}

// sampleEnv is the environment every sampleRecord was learned in.
var sampleEnv = sampleRecord("").Fingerprint

// sectionsOf lists the sections b holds records for, in key order; the
// records of these tests are one tenant's, in one environment.
func sectionsOf(t *testing.T, b Backend) []string {
	t.Helper()
	keys, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.Section
	}
	return names
}

func TestVariantsHashOrderAndContentSensitive(t *testing.T) {
	ab := VariantsHash([]string{"a", "b"})
	ba := VariantsHash([]string{"b", "a"})
	if ab == ba {
		t.Error("hash ignores order")
	}
	// The separator must prevent boundary aliasing: ["ab"] vs ["a","b"].
	if VariantsHash([]string{"ab"}) == VariantsHash([]string{"a", "b"}) {
		t.Error("hash aliases across name boundaries")
	}
	if ab != VariantsHash([]string{"a", "b"}) {
		t.Error("hash not deterministic")
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewTenantStore(NewMemStore(), "")
	if _, ok, err := m.Load("missing", sampleEnv); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	rec := sampleRecord("sec")
	if err := m.Save(rec); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's copy must not reach the store.
	rec.Policies[0].MeanOverhead = 99
	got, ok, err := m.Load("sec", sampleEnv)
	if !ok || err != nil {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Policies[0].MeanOverhead != 0.12 {
		t.Error("store aliases the caller's slice")
	}
	// And mutating the loaded copy must not reach the store either.
	got.Policies[0].MeanOverhead = 77
	again, _, _ := m.Load("sec", sampleEnv)
	if again.Policies[0].MeanOverhead != 0.12 {
		t.Error("load aliases the stored slice")
	}
	if err := m.Save(Record{}); err == nil {
		t.Error("nameless record accepted")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policies.json")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.LoadWarning() != "" {
		t.Errorf("missing file produced warning %q", fs.LoadWarning())
	}
	ts := NewTenantStore(fs, "")
	if err := ts.Save(sampleRecord("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := ts.Save(sampleRecord("beta")); err != nil {
		t.Fatal(err)
	}

	// A fresh open must see both records.
	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if names := sectionsOf(t, fs2); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("sections = %v", names)
	}
	got, ok, err := NewTenantStore(fs2, "").Load("alpha", sampleEnv)
	if !ok || err != nil {
		t.Fatalf("load alpha: ok=%v err=%v", ok, err)
	}
	want := sampleRecord("alpha")
	if got.Winner != want.Winner || got.WinnerOverhead != want.WinnerOverhead ||
		got.Fingerprint != want.Fingerprint || len(got.Policies) != 2 {
		t.Errorf("round trip mismatch: %+v", got)
	}

	// The visible file must always be complete, parseable JSON with the
	// current schema (atomic rename, never a torn write).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sc fileSchema
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatalf("store file not parseable: %v", err)
	}
	if sc.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", sc.Schema, SchemaVersion)
	}
	// No leftover temporary files.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the store file", len(entries))
	}
}

func TestFileStoreCorruptLoadsEmpty(t *testing.T) {
	cases := map[string]string{
		"garbage":   "not json at all {{{",
		"truncated": `{"schema":1,"records":{"sec":{"section":"sec","win`,
		"empty":     "",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "policies.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenFile(path)
			if err != nil {
				t.Fatalf("corrupt file must load as empty, got error %v", err)
			}
			if fs.LoadWarning() == "" {
				t.Error("no warning for corrupt file")
			}
			if names := sectionsOf(t, fs); len(names) != 0 {
				t.Errorf("corrupt store not empty: %v", names)
			}
			// The store must remain usable: saving repairs the file.
			if err := NewTenantStore(fs, "").Save(sampleRecord("sec")); err != nil {
				t.Fatal(err)
			}
			fs2, err := OpenFile(path)
			if err != nil || fs2.LoadWarning() != "" {
				t.Fatalf("repaired file still bad: err=%v warn=%q", err, fs2.LoadWarning())
			}
		})
	}
}

// TestFileStoreTornTempNeverVisible simulates a crash mid-write: the
// temporary sibling a crashed writeFileAtomic leaves behind must never be
// read as the store, must not shadow the real file, and is swept away by
// the next open.
func TestFileStoreTornTempNeverVisible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policies.json")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewTenantStore(fs, "").Save(sampleRecord("alpha")); err != nil {
		t.Fatal(err)
	}
	// A crash between CreateTemp and rename leaves a torn temp sibling.
	torn := filepath.Join(dir, "policies.json.tmp123456")
	if err := os.WriteFile(torn, []byte(`{"schema":2,"records":[{"key":{"sec`), 0o600); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.LoadWarning() != "" {
		t.Errorf("torn temp file tainted the load: %q", fs2.LoadWarning())
	}
	got, ok, err := NewTenantStore(fs2, "").Load("alpha", sampleEnv)
	if !ok || err != nil || got.Winner != "a" {
		t.Fatalf("real store not loaded: ok=%v err=%v winner=%q", ok, err, got.Winner)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("stale temp file not swept on open")
	}
	// Only the real store file remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "policies.json" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory = %v, want just policies.json", names)
	}
	// And a Put through the fresh handle still round-trips durably.
	if err := NewTenantStore(fs2, "").Save(sampleRecord("beta")); err != nil {
		t.Fatal(err)
	}
	fs3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if names := sectionsOf(t, fs3); len(names) != 2 {
		t.Errorf("sections after repair = %v, want 2", names)
	}
}

func TestFileStoreSchemaMismatchLoadsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policies.json")
	future := fmt.Sprintf(`{"schema":%d,"records":{"sec":{"section":"sec"}}}`, SchemaVersion+1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.LoadWarning() == "" {
		t.Error("no warning for schema mismatch")
	}
	if names := sectionsOf(t, fs); len(names) != 0 {
		t.Error("record from a different schema version surfaced")
	}
}

func TestFileStoreConcurrentSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policies.json")
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTenantStore(fs, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := sampleRecord(fmt.Sprintf("sec%d", g%4))
				rec.Rounds = i
				if err := ts.Save(rec); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if _, _, err := ts.Load("sec0", sampleEnv); err != nil {
					t.Errorf("load: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if names := sectionsOf(t, fs2); len(names) != 4 {
		t.Errorf("sections = %v, want 4", names)
	}
}
