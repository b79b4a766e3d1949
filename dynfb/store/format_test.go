package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// formatPuts is the put sequence behind testdata/format, which commit
// b84d1a8 (the last one with a Put per backend) wrote by running exactly
// this function: creates and updates across three tenants — "" and
// "default" among them, which Key.String renders alike — with, for the KV
// store, a compaction in the middle, so its directory holds a snapshot and
// a non-empty log.
func formatPuts(t *testing.T, b Backend, compact func()) {
	t.Helper()
	put := func(k Key, clock uint64, origin string) {
		t.Helper()
		cur, _, err := b.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		rec := sampleRecord(k.Section)
		rec.Rounds = int(clock)
		if _, err := b.Put(VersionedRecord{Key: k, Clock: clock, Origin: origin, Record: rec}, cur.Version); err != nil {
			t.Fatal(err)
		}
	}
	sortA := Key{Section: "sort", Env: "00000000000000aa"}
	waterB := Key{Tenant: "acme", Section: "water", Env: "00000000000000bb"}
	put(sortA, 1, "")
	put(Key{Tenant: "default", Section: "sort", Env: sortA.Env}, 1, "r1")
	put(waterB, 1, "r1")
	put(sortA, 2, "r2")
	compact()
	put(Key{Tenant: "acme", Section: "water", Env: "00000000000000cc"}, 1, "r1")
	put(waterB, 2, "r2")
	put(waterB, 3, "r1")
}

func copyFixture(t *testing.T, name, dst string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "format", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOnDiskFormatUnchanged opens copies of a FileStore file and a KV
// directory written before the backends shared one record table, and then
// writes the same puts afresh: both directions must agree byte for byte.
func TestOnDiskFormatUnchanged(t *testing.T) {
	dir := t.TempDir()
	filePath := filepath.Join(dir, "policies.json")
	kvDir := filepath.Join(dir, "kv")
	if err := os.Mkdir(kvDir, 0o755); err != nil {
		t.Fatal(err)
	}
	wantFile := copyFixture(t, "policies.json", filePath)
	wantSnap := copyFixture(t, "kv/"+kvSnapshotName, filepath.Join(kvDir, kvSnapshotName))
	wantWAL := copyFixture(t, "kv/"+kvWALName, filepath.Join(kvDir, kvWALName))
	if len(wantWAL) == 0 {
		t.Fatal("fixture WAL is empty")
	}

	fs, err := OpenFile(filePath)
	if err != nil || fs.LoadWarning() != "" {
		t.Fatalf("fixture file: err=%v warning=%q", err, fs.LoadWarning())
	}
	kv, err := OpenKV(kvDir)
	if err != nil || kv.LoadWarning() != "" {
		t.Fatalf("fixture KV directory: err=%v warning=%q", err, kv.LoadWarning())
	}
	fileKeys, _ := fs.List()
	kvKeys, _ := kv.List()
	if len(fileKeys) != 4 || !reflect.DeepEqual(fileKeys, kvKeys) {
		t.Errorf("fixtures list %v and %v, want the same 4 keys", fileKeys, kvKeys)
	}
	// The two fixtures end in the same state, so one file checks both
	// loaders: snapshot plus log replays to what the file holds.
	for name, recs := range map[string]map[Key]VersionedRecord{"file": fs.recs, "kv": kv.recs} {
		if got, err := encodeRecords(recs); err != nil || !bytes.Equal(got, wantFile) {
			t.Errorf("%s fixture re-encodes differently (err=%v):\n%s", name, err, got)
		}
	}

	fresh := t.TempDir()
	fs2, err := OpenFile(filepath.Join(fresh, "policies.json"))
	if err != nil {
		t.Fatal(err)
	}
	formatPuts(t, fs2, func() {})
	kv2, err := OpenKV(filepath.Join(fresh, "kv"))
	if err != nil {
		t.Fatal(err)
	}
	formatPuts(t, kv2, func() {
		if err := kv2.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	for name, want := range map[string][]byte{
		"policies.json":        wantFile,
		"kv/" + kvSnapshotName: wantSnap,
		"kv/" + kvWALName:      wantWAL,
	} {
		if got, err := os.ReadFile(filepath.Join(fresh, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s written now differs from the fixture (err=%v)", name, err)
		}
	}
}
