package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// kvPut writes one versioned record through the Backend interface,
// creating or updating as needed.
func kvPut(t *testing.T, s *KVStore, section, env string, clock uint64) {
	t.Helper()
	k := Key{Section: section, Env: env}
	cur, ok, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	if ok {
		prev = cur.Version
	}
	rec := sampleRecord(section)
	if _, err := s.Put(VersionedRecord{Key: k, Clock: clock, Record: rec}, prev); err != nil {
		t.Fatal(err)
	}
}

func TestKVCrashRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kvPut(t, s, "alpha", "e1", 1)
	kvPut(t, s, "beta", "e1", 1)
	kvPut(t, s, "alpha", "e1", 2) // update: replayed last-write-wins

	// Simulate a crash: no Close, no compaction — state lives in the WAL.
	if _, err := os.Stat(filepath.Join(dir, kvSnapshotName)); !os.IsNotExist(err) {
		t.Fatal("snapshot exists before any compaction")
	}
	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LoadWarning() != "" {
		t.Errorf("clean WAL produced warning %q", s2.LoadWarning())
	}
	got, ok, err := s2.Get(Key{Section: "alpha", Env: "e1"})
	if !ok || err != nil {
		t.Fatalf("alpha: ok=%v err=%v", ok, err)
	}
	if got.Clock != 2 || got.Version != 2 {
		t.Errorf("alpha clock=%d version=%d, want clock 2 version 2", got.Clock, got.Version)
	}
	if keys, _ := s2.List(); len(keys) != 2 {
		t.Errorf("recovered %d keys, want 2", len(keys))
	}
}

// TestKVTornTailTruncated crashes mid-append in three ways; in each case
// every complete frame survives and the damage is reported, not fatal.
func TestKVTornTailTruncated(t *testing.T) {
	damage := map[string]func(t *testing.T, walPath string){
		"torn-payload": func(t *testing.T, walPath string) {
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			// Cut into the last frame's payload.
			if err := os.Truncate(walPath, st.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"short-header": func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// A crash after 3 bytes of the next frame's header.
			if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
				t.Fatal(err)
			}
		},
		"checksum-mismatch": func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// A full frame whose payload does not match its CRC.
			payload := []byte(`{"key":{"section":"evil","env":"e"}}`)
			frame := make([]byte, kvFrameHeader+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], 0xdeadbeef)
			copy(frame[kvFrameHeader:], payload)
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
		},
		"implausible-length": func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			header := make([]byte, kvFrameHeader)
			binary.LittleEndian.PutUint32(header[0:4], kvMaxFrame+1)
			if _, err := f.Write(header); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakWAL := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenKV(dir)
			if err != nil {
				t.Fatal(err)
			}
			kvPut(t, s, "alpha", "e1", 1)
			kvPut(t, s, "beta", "e1", 1)
			walPath := filepath.Join(dir, kvWALName)
			preSize := func() int64 {
				st, err := os.Stat(walPath)
				if err != nil {
					t.Fatal(err)
				}
				return st.Size()
			}()

			breakWAL(t, walPath)

			s2, err := OpenKV(dir)
			if err != nil {
				t.Fatalf("damaged WAL must open, got %v", err)
			}
			if s2.LoadWarning() == "" {
				t.Error("no warning for damaged WAL tail")
			}
			// The complete frames survive...
			if _, ok, _ := s2.Get(Key{Section: "beta", Env: "e1"}); !ok {
				// ...except the one the damage cut into.
				if name != "torn-payload" {
					t.Error("complete frame lost to tail damage")
				}
			}
			if _, ok, _ := s2.Get(Key{Section: "alpha", Env: "e1"}); !ok {
				t.Error("first frame lost to tail damage")
			}
			// The damaged record is never visible.
			if _, ok, _ := s2.Get(Key{Section: "evil", Env: "e"}); ok {
				t.Error("corrupt frame surfaced a record")
			}
			// The damaged suffix is physically gone, so the next append
			// starts from a clean boundary.
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() > preSize {
				t.Errorf("WAL still %d bytes after truncation, had %d before damage", st.Size(), preSize)
			}
			// And the store keeps working.
			kvPut(t, s2, "gamma", "e1", 1)
			s3, err := OpenKV(dir)
			if err != nil {
				t.Fatal(err)
			}
			if s3.LoadWarning() != "" {
				t.Errorf("repaired WAL still warns: %q", s3.LoadWarning())
			}
			if _, ok, _ := s3.Get(Key{Section: "gamma", Env: "e1"}); !ok {
				t.Error("write after repair lost")
			}
		})
	}
}

func TestKVCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		kvPut(t, s, "alpha", "e1", uint64(i+1))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The WAL is empty, the snapshot holds everything.
	st, err := os.Stat(filepath.Join(dir, kvWALName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Errorf("WAL %d bytes after compaction, want 0", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, kvSnapshotName)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	// Writes after compaction land in the WAL again; reopen folds both.
	kvPut(t, s, "beta", "e1", 1)
	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, ok, _ := s2.Get(Key{Section: "alpha", Env: "e1"})
	if !ok || a.Clock != 6 {
		t.Errorf("alpha: ok=%v clock=%d, want clock 6 from snapshot", ok, a.Clock)
	}
	if _, ok, _ := s2.Get(Key{Section: "beta", Env: "e1"}); !ok {
		t.Error("post-compaction write lost")
	}
}

func TestKVCloseCompactsAndReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kvPut(t, s, "alpha", "e1", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(VersionedRecord{Key: Key{Section: "x", Env: "e"}, Record: sampleRecord("x")}, 0); err == nil {
		t.Error("Put after Close succeeded")
	}
	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(Key{Section: "alpha", Env: "e1"}); !ok {
		t.Error("record lost across Close/reopen")
	}
}

// tearingWAL is a log file on a failing disk: the next write after tear is
// set stops half way, and with stuck set the torn bytes cannot be cut off.
type tearingWAL struct {
	*os.File
	tear, stuck bool
}

func (w *tearingWAL) Write(p []byte) (int, error) {
	if !w.tear {
		return w.File.Write(p)
	}
	w.tear = false
	n, _ := w.File.Write(p[:len(p)/2])
	return n, errors.New("no space left on device")
}

func (w *tearingWAL) Truncate(size int64) error {
	if w.stuck {
		return errors.New("input/output error")
	}
	return w.File.Truncate(size)
}

// TestKVTornAppendKeepsLaterPuts: an append that fails part-way must not
// leave its torn frame in front of later ones, where replay would stop and
// drop every put acknowledged since.
func TestKVTornAppendKeepsLaterPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kvPut(t, s, "alpha", "e1", 1)
	s.wal = &tearingWAL{File: s.wal.(*os.File), tear: true}
	beta := Key{Section: "beta", Env: "e1"}
	if _, err := s.Put(VersionedRecord{Key: beta, Clock: 1, Record: sampleRecord("beta")}, 0); err == nil {
		t.Fatal("put over a torn append succeeded")
	}
	if _, ok, _ := s.Get(beta); ok {
		t.Error("failed put is readable")
	}
	kvPut(t, s, "gamma", "e1", 1)
	kvPut(t, s, "alpha", "e1", 2)

	s2, err := OpenKV(dir) // a crash: no Close, the state is the log's
	if err != nil {
		t.Fatal(err)
	}
	if s2.LoadWarning() != "" {
		t.Errorf("log still damaged after the failed append: %s", s2.LoadWarning())
	}
	if _, ok, _ := s2.Get(Key{Section: "gamma", Env: "e1"}); !ok {
		t.Error("put acknowledged after the failed append is lost")
	}
	if a, _, _ := s2.Get(Key{Section: "alpha", Env: "e1"}); a.Clock != 2 {
		t.Errorf("alpha at clock %d after reopen, want 2", a.Clock)
	}
	if _, ok, _ := s2.Get(beta); ok {
		t.Error("failed put surfaced after reopen")
	}
}

// TestKVTornAppendStuckFailsClosed: when the torn frame cannot be removed,
// no later put may be acknowledged — it would sit behind the tear.
func TestKVTornAppendStuckFailsClosed(t *testing.T) {
	s, err := OpenKV(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kvPut(t, s, "alpha", "e1", 1)
	s.wal = &tearingWAL{File: s.wal.(*os.File), tear: true, stuck: true}
	for _, section := range []string{"beta", "gamma"} {
		k := Key{Section: section, Env: "e1"}
		if _, err := s.Put(VersionedRecord{Key: k, Clock: 1, Record: sampleRecord(section)}, 0); err == nil {
			t.Errorf("put %s acknowledged behind a torn frame", section)
		}
		if _, ok, _ := s.Get(k); ok {
			t.Errorf("refused put %s is readable", section)
		}
	}
}

// FuzzKVReplay opens arbitrary bytes as the write-ahead log, beside no
// snapshot or a valid one: the open never fails, every record that
// survives is addressable, and the repair is complete — a second open of
// the directory finds nothing more to repair and the same records.
func FuzzKVReplay(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join("testdata", "format", "kv", kvSnapshotName))
	if err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join("testdata", "format", "kv", kvWALName))
	if err != nil {
		f.Fatal(err)
	}
	// The damage TestKVTornTailTruncated inflicts, as seeds.
	evil := []byte(`{"key":{"section":"evil","env":"e"}}`)
	badSum := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(len(evil))), 0xdeadbeef)
	tooLong := binary.LittleEndian.AppendUint32(nil, kvMaxFrame+1)
	for _, log := range [][]byte{
		nil, wal, wal[:len(wal)-5], append(bytes.Clone(wal), 1, 2, 3),
		append(append(bytes.Clone(wal), badSum...), evil...), append(bytes.Clone(wal), append(tooLong, 0, 0, 0, 0)...),
	} {
		f.Add(log, false)
		f.Add(log, true)
	}
	f.Fuzz(func(t *testing.T, log []byte, withSnapshot bool) {
		dir := t.TempDir()
		if withSnapshot {
			if err := os.WriteFile(filepath.Join(dir, kvSnapshotName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, kvWALName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*KVStore, []byte) {
			s, err := OpenKV(dir)
			if err != nil {
				t.Fatalf("OpenKV over log %q: %v", log, err)
			}
			s.wal.Close() // not s.Close: a compaction would hide the log from the next open
			data, err := encodeRecords(s.recs)
			if err != nil {
				t.Fatal(err)
			}
			return s, data
		}
		s, first := open()
		for k, vr := range s.recs {
			if k.Validate() != nil || vr.Key != k || vr.Record.Section != k.Section {
				t.Fatalf("log %q surfaced an unaddressable record at %+v: %+v", log, k, vr)
			}
		}
		s2, second := open()
		if s2.LoadWarning() != "" || !bytes.Equal(first, second) {
			t.Fatalf("second open of log %q: warning %q, records\n%s\nwere\n%s", log, s2.LoadWarning(), second, first)
		}
	})
}
