// Conformance suite: every Backend implementation — MemStore, FileStore,
// KVStore, ReplStore — must satisfy the same contract: CAS-versioned
// puts, byte-identical round trips, sorted listings, watch notification,
// tenant and environment isolation through the Store view, and (where
// the backend is durable) persistence across a reopen. The suite lives
// in package store_test so it can stand up a real replication hub.
package store_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/dynfb/store"
	"repro/dynfb/store/hub"
)

// backendFixture builds a fresh backend, and optionally reopens "the
// same storage" to test durability (nil reopen = not durable).
type backendFixture struct {
	name   string
	open   func(t *testing.T) store.Backend
	reopen func(t *testing.T, old store.Backend) store.Backend
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// startHub runs a replication hub on an httptest server, torn down with
// the test.
func startHub(t *testing.T) string {
	t.Helper()
	h, err := hub.New(hub.Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

func fixtures() []backendFixture {
	return []backendFixture{
		{
			name: "mem",
			open: func(t *testing.T) store.Backend { return store.NewMemStore() },
		},
		{
			name: "file",
			open: func(t *testing.T) store.Backend {
				fs, err := store.OpenFile(filepath.Join(t.TempDir(), "policies.json"))
				if err != nil {
					t.Fatal(err)
				}
				return fs
			},
			reopen: func(t *testing.T, old store.Backend) store.Backend {
				path := old.(*store.FileStore).Path()
				if err := old.Close(); err != nil {
					t.Fatal(err)
				}
				fs, err := store.OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return fs
			},
		},
		{
			name: "kv",
			open: func(t *testing.T) store.Backend {
				kv, err := store.OpenKV(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return kv
			},
			reopen: func(t *testing.T, old store.Backend) store.Backend {
				dir := old.(*store.KVStore).Dir()
				if err := old.Close(); err != nil {
					t.Fatal(err)
				}
				kv, err := store.OpenKV(dir)
				if err != nil {
					t.Fatal(err)
				}
				return kv
			},
		},
		{
			name: "repl",
			open: func(t *testing.T) store.Backend {
				rs, err := store.OpenRepl(store.ReplConfig{
					HubURL: startHub(t),
					Origin: "conformance-1",
					Logger: quietLogger(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return rs
			},
			reopen: func(t *testing.T, old store.Backend) store.Backend {
				// "Reopen" for a replica: drain it (flushing its writes to
				// the hub) and attach a fresh replica, whose bootstrap
				// resync must recover the state.
				hubURL := old.(*store.ReplStore).HubURL()
				if err := old.Close(); err != nil {
					t.Fatal(err)
				}
				rs, err := store.OpenRepl(store.ReplConfig{
					HubURL: hubURL,
					Origin: "conformance-2",
					Logger: quietLogger(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return rs
			},
		},
	}
}

func confKey(section, env string) store.Key {
	return store.Key{Section: section, Env: env}
}

func confRecord(section string) store.Record {
	return store.Record{
		Section:        section,
		Fingerprint:    store.Fingerprint{GoMaxProcs: 8, Workers: 4, VariantsHash: store.VariantsHash([]string{"a", "b"})},
		Winner:         "a",
		WinnerOverhead: 0.125,
		Rounds:         3,
		Policies: []store.PolicyRecord{
			{Name: "a", TimesSampled: 3, TimesChosen: 3, MeanOverhead: 0.12, LastOverhead: 0.125},
			{Name: "b", TimesSampled: 3, TimesChosen: 0, MeanOverhead: 0.4, LastOverhead: 0.39},
		},
		UpdatedUnix: 1700000000,
	}
}

func TestBackendConformance(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) { runConformance(t, fx) })
	}
}

func runConformance(t *testing.T, fx backendFixture) {
	t.Run("missing", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		if _, ok, err := b.Get(confKey("sec", "env1")); ok || err != nil {
			t.Fatalf("empty backend Get: ok=%v err=%v", ok, err)
		}
		keys, err := b.List()
		if err != nil || len(keys) != 0 {
			t.Fatalf("empty backend List: %v %v", keys, err)
		}
	})

	t.Run("round-trip-byte-identical", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		rec := confRecord("sec")
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := b.Put(store.VersionedRecord{
			Key: confKey("sec", rec.Fingerprint.Hash()), Clock: 1, Record: rec,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stored.Version == 0 {
			t.Error("Put assigned no version")
		}
		got, ok, err := b.Get(confKey("sec", rec.Fingerprint.Hash()))
		if !ok || err != nil {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		raw, err := json.Marshal(got.Record)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(want) {
			t.Errorf("record not byte-identical:\n got %s\nwant %s", raw, want)
		}
	})

	t.Run("cas", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		rec := confRecord("sec")
		k := confKey("sec", rec.Fingerprint.Hash())
		first, err := b.Put(store.VersionedRecord{Key: k, Clock: 1, Record: rec}, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A second blind create must conflict: someone got there first.
		if _, err := b.Put(store.VersionedRecord{Key: k, Clock: 1, Record: rec}, 0); !errors.Is(err, store.ErrConflict) {
			t.Fatalf("blind second create: err=%v, want ErrConflict", err)
		}
		// A stale expected version must conflict.
		if _, err := b.Put(store.VersionedRecord{Key: k, Clock: 2, Record: rec}, first.Version+7); !errors.Is(err, store.ErrConflict) {
			t.Fatalf("stale version: err=%v, want ErrConflict", err)
		}
		// The correct expected version must succeed and advance.
		second, err := b.Put(store.VersionedRecord{Key: k, Clock: 2, Record: rec}, first.Version)
		if err != nil {
			t.Fatal(err)
		}
		if second.Version <= first.Version {
			t.Errorf("version did not advance: %d -> %d", first.Version, second.Version)
		}
		// Concurrent CAS writers: exactly the right number of increments
		// survive when every writer retries on conflict.
		var wg sync.WaitGroup
		var applied atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					for {
						cur, ok, err := b.Get(k)
						if err != nil || !ok {
							t.Errorf("get: ok=%v err=%v", ok, err)
							return
						}
						next := cur
						next.Clock = cur.Clock + 1
						if _, err := b.Put(next, cur.Version); err != nil {
							if errors.Is(err, store.ErrConflict) {
								continue
							}
							t.Errorf("put: %v", err)
							return
						}
						applied.Add(1)
						break
					}
				}
			}()
		}
		wg.Wait()
		final, ok, err := b.Get(k)
		if !ok || err != nil {
			t.Fatalf("final get: ok=%v err=%v", ok, err)
		}
		if want := second.Clock + uint64(applied.Load()); final.Clock != want {
			t.Errorf("clock = %d, want %d (lost or duplicated CAS updates)", final.Clock, want)
		}
	})

	t.Run("list-sorted", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		for _, k := range []store.Key{
			{Tenant: "t2", Section: "s1", Env: "e1"},
			{Tenant: "t1", Section: "s2", Env: "e2"},
			{Tenant: "t1", Section: "s2", Env: "e1"},
			{Tenant: "t1", Section: "s1", Env: "e1"},
		} {
			rec := confRecord(k.Section)
			if _, err := b.Put(store.VersionedRecord{Key: k, Clock: 1, Record: rec}, 0); err != nil {
				t.Fatal(err)
			}
		}
		keys, err := b.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 {
			t.Fatalf("got %d keys, want 4", len(keys))
		}
		want := []store.Key{
			{Tenant: "t1", Section: "s1", Env: "e1"},
			{Tenant: "t1", Section: "s2", Env: "e1"},
			{Tenant: "t1", Section: "s2", Env: "e2"},
			{Tenant: "t2", Section: "s1", Env: "e1"},
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Errorf("keys[%d] = %v, want %v", i, keys[i], want[i])
			}
		}
	})

	t.Run("watch", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		var notified atomic.Int64
		cancel := b.Watch(func(vr store.VersionedRecord) { notified.Add(1) })
		rec := confRecord("sec")
		if _, err := b.Put(store.VersionedRecord{Key: confKey("sec", "e1"), Clock: 1, Record: rec}, 0); err != nil {
			t.Fatal(err)
		}
		if notified.Load() != 1 {
			t.Errorf("watch fired %d times after one put", notified.Load())
		}
		cancel()
		if _, err := b.Put(store.VersionedRecord{Key: confKey("sec", "e2"), Clock: 1, Record: rec}, 0); err != nil {
			t.Fatal(err)
		}
		if notified.Load() != 1 {
			t.Errorf("watch fired after cancel")
		}
	})

	t.Run("rejects-bad-keys", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		rec := confRecord("sec")
		if _, err := b.Put(store.VersionedRecord{Key: store.Key{Section: "", Env: "e"}, Record: rec}, 0); err == nil {
			t.Error("keyless section accepted")
		}
		if _, err := b.Put(store.VersionedRecord{Key: store.Key{Section: "sec", Env: ""}, Record: rec}, 0); err == nil {
			t.Error("keyless env accepted")
		}
		if _, err := b.Put(store.VersionedRecord{
			Key: confKey("other", "e"), Record: confRecord("sec"),
		}, 0); err == nil {
			t.Error("section/key mismatch accepted")
		}
	})

	// A record put without its section name is stored with the key's: one
	// encoding per key, whether it is read now, by a peer, or after a reopen.
	t.Run("fills-record-section", func(t *testing.T) {
		b := fx.open(t)
		defer func() { b.Close() }() // whichever handle is current: reopen closes the first
		rec := confRecord("")
		k := confKey("sec", rec.Fingerprint.Hash())
		stored, err := b.Put(store.VersionedRecord{Key: k, Clock: 1, Record: rec}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := b.Get(k)
		if !ok || err != nil || got.Record.Section != "sec" || stored.Record.Section != "sec" {
			t.Errorf("read back section %q (Put returned %q, ok=%v err=%v), want sec",
				got.Record.Section, stored.Record.Section, ok, err)
		}
		if fx.reopen == nil {
			return
		}
		b = fx.reopen(t, b)
		again, ok, err := b.Get(k)
		if !ok || err != nil || !reflect.DeepEqual(again.Record, got.Record) {
			t.Errorf("record changed across reopen (ok=%v err=%v):\n got %+v\nwant %+v", ok, err, again.Record, got.Record)
		}
	})

	t.Run("tenant-and-env-isolation", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		alice := store.NewTenantStore(b, "alice")
		bob := store.NewTenantStore(b, "bob")

		recA := confRecord("sec")
		recA.Winner = "a"
		if err := alice.Save(recA); err != nil {
			t.Fatal(err)
		}
		recB := confRecord("sec")
		recB.Winner = "b"
		if err := bob.Save(recB); err != nil {
			t.Fatal(err)
		}
		got, ok, err := alice.Load("sec")
		if !ok || err != nil || got.Winner != "a" {
			t.Fatalf("alice sees %+v ok=%v err=%v, want her own winner a", got.Winner, ok, err)
		}
		got, ok, err = bob.Load("sec")
		if !ok || err != nil || got.Winner != "b" {
			t.Fatalf("bob sees %+v ok=%v err=%v, want his own winner b", got.Winner, ok, err)
		}

		// Environment isolation within one tenant: LoadFor is exact.
		otherEnv := recA
		otherEnv.Fingerprint.Workers = 99
		otherEnv.Winner = "b"
		if err := alice.Save(otherEnv); err != nil {
			t.Fatal(err)
		}
		el := alice.(store.EnvLoader)
		got, ok, err = el.LoadFor("sec", recA.Fingerprint)
		if !ok || err != nil || got.Winner != "a" {
			t.Fatalf("LoadFor(original env) = %q ok=%v err=%v, want a", got.Winner, ok, err)
		}
		got, ok, err = el.LoadFor("sec", otherEnv.Fingerprint)
		if !ok || err != nil || got.Winner != "b" {
			t.Fatalf("LoadFor(other env) = %q ok=%v err=%v, want b", got.Winner, ok, err)
		}
		if _, ok, _ := el.LoadFor("sec", store.Fingerprint{Workers: 12345}); ok {
			t.Error("LoadFor invented a record for an unknown environment")
		}
	})

	t.Run("merge-lww", func(t *testing.T) {
		b := fx.open(t)
		defer b.Close()
		k := confKey("sec", "e1")
		older := store.VersionedRecord{Key: k, Clock: 5, Origin: "x", Record: confRecord("sec")}
		newer := store.VersionedRecord{Key: k, Clock: 9, Origin: "y", Record: confRecord("sec")}
		newer.Record.Winner = "b"
		if applied, err := store.MergeLWW(b, newer); err != nil || !applied {
			t.Fatalf("merging into empty: applied=%v err=%v", applied, err)
		}
		if applied, err := store.MergeLWW(b, older); err != nil || applied {
			t.Fatalf("older record applied over newer: applied=%v err=%v", applied, err)
		}
		got, _, _ := b.Get(k)
		if got.Record.Winner != "b" {
			t.Errorf("winner = %q after LWW, want b", got.Record.Winner)
		}
	})

	if fx.reopen != nil {
		t.Run("reopen", func(t *testing.T) {
			b := fx.open(t)
			rec := confRecord("sec")
			k := confKey("sec", rec.Fingerprint.Hash())
			want, _ := json.Marshal(rec)
			if _, err := b.Put(store.VersionedRecord{Key: k, Clock: 3, Record: rec}, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ { // extra sections survive too
				sec := fmt.Sprintf("sec%d", i)
				r := confRecord(sec)
				if _, err := b.Put(store.VersionedRecord{Key: confKey(sec, "e"), Clock: 1, Record: r}, 0); err != nil {
					t.Fatal(err)
				}
			}
			b2 := fx.reopen(t, b)
			defer b2.Close()
			got, ok, err := b2.Get(k)
			if !ok || err != nil {
				t.Fatalf("reopened Get: ok=%v err=%v", ok, err)
			}
			raw, _ := json.Marshal(got.Record)
			if string(raw) != string(want) {
				t.Errorf("record changed across reopen:\n got %s\nwant %s", raw, want)
			}
			if got.Clock != 3 {
				t.Errorf("clock = %d across reopen, want 3", got.Clock)
			}
			keys, err := b2.List()
			if err != nil || len(keys) != 6 {
				t.Fatalf("reopened List: %d keys (err=%v), want 6", len(keys), err)
			}
		})
	}
}
