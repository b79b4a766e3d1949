package store_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dynfb/store"
	"repro/dynfb/store/hub"
)

// partitionTransport is an http.RoundTripper with a switch: while down, every
// request fails as if the network were cut — and so does the response to a
// long-poll that was already parked on the hub when the cut came, or a peer's
// write could still wake it and arrive through the partition. It makes
// partitions deterministic — no listeners are killed, no ports reused.
type partitionTransport struct {
	down  atomic.Bool
	inner http.RoundTripper
}

func (p *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.down.Load() {
		return nil, errors.New("partition: network unreachable")
	}
	resp, err := p.inner.RoundTrip(req)
	if err == nil && p.down.Load() {
		resp.Body.Close()
		return nil, errors.New("partition: connection reset")
	}
	return resp, err
}

func openReplica(t *testing.T, hubURL, origin string, rt http.RoundTripper) *store.ReplStore {
	t.Helper()
	return openReplicaOver(t, hubURL, origin, rt, nil)
}

// openReplicaOver opens a replica over an existing local backend (nil for a
// fresh MemStore).
func openReplicaOver(t *testing.T, hubURL, origin string, rt http.RoundTripper, local store.Backend) *store.ReplStore {
	t.Helper()
	r, err := store.OpenRepl(store.ReplConfig{
		HubURL:             hubURL,
		Origin:             origin,
		Local:              local,
		InitialSyncTimeout: 2 * time.Second,
		PollWait:           200 * time.Millisecond,
		RetryMin:           10 * time.Millisecond,
		RetryMax:           50 * time.Millisecond,
		Logger:             quietLogger(),
		HTTPClient:         &http.Client{Transport: rt, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// save and load go through the default tenant's view of a replica, as a
// section's do; every confRecord is learned in the same environment.
func save(b store.Backend, rec store.Record) error {
	return store.NewTenantStore(b, "").Save(rec)
}

func load(b store.Backend, section string) (store.Record, bool) {
	rec, ok, _ := store.NewTenantStore(b, "").Load(section, confRecord(section).Fingerprint)
	return rec, ok
}

func waitUntil(t *testing.T, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplPartitionDegradesAndResyncs cuts one replica off mid-flight. Writes
// on both sides of the cut must keep succeeding, and on reconnect both sides
// must converge without losing either's records.
func TestReplPartitionDegradesAndResyncs(t *testing.T) {
	hubURL := startHub(t)
	pt := &partitionTransport{inner: http.DefaultTransport}
	a := openReplica(t, hubURL, "replica-a", http.DefaultTransport)
	b := openReplica(t, hubURL, "replica-b", pt)

	if !b.Status().Connected {
		t.Fatal("replica-b not connected after bootstrap")
	}

	// Cut replica-b off.
	pt.down.Store(true)

	// A write on the partitioned side must succeed locally and be queued.
	if err := save(b, confRecord("from-b")); err != nil {
		t.Fatalf("partitioned write failed: %v", err)
	}
	if got, ok := load(b, "from-b"); !ok || got.Winner == "" {
		t.Fatal("partitioned write not readable locally")
	}
	waitUntil(t, "replica-b to notice the partition", func() bool {
		st := b.Status()
		return !st.Connected && st.Pending > 0
	})

	// Meanwhile the healthy side keeps writing through the hub.
	if err := save(a, confRecord("from-a")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replica-a's write to reach the hub", func() bool {
		return a.Status().Pending == 0
	})
	if _, ok := load(b, "from-a"); ok {
		t.Fatal("partitioned replica saw a peer write through the cut")
	}

	// Heal. Replica-b must resync: push its pending write, pull a's.
	pt.down.Store(false)
	waitUntil(t, "replica-b to resync", func() bool {
		st := b.Status()
		return st.Connected && st.Pending == 0
	})
	waitUntil(t, "a's record to reach b", func() bool {
		_, ok := load(b, "from-a")
		return ok
	})
	waitUntil(t, "b's record to reach a", func() bool {
		_, ok := load(a, "from-b")
		return ok
	})
	if lag := b.Status().SyncLag(time.Now()); lag < 0 || lag > time.Minute {
		t.Errorf("sync lag %v after resync", lag)
	}
}

// TestReplBootsDegradedThenRecovers opens a replica while the hub is
// unreachable: it must come up local-only (writes succeed) and converge once
// the network returns.
func TestReplBootsDegradedThenRecovers(t *testing.T) {
	hubURL := startHub(t)
	a := openReplica(t, hubURL, "replica-a", http.DefaultTransport)
	if err := save(a, confRecord("early")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "early record to reach the hub", func() bool {
		return a.Status().Pending == 0
	})

	pt := &partitionTransport{inner: http.DefaultTransport}
	pt.down.Store(true)
	b, err := store.OpenRepl(store.ReplConfig{
		HubURL:             hubURL,
		Origin:             "replica-b",
		InitialSyncTimeout: 50 * time.Millisecond,
		PollWait:           200 * time.Millisecond,
		RetryMin:           10 * time.Millisecond,
		RetryMax:           50 * time.Millisecond,
		Logger:             quietLogger(),
		HTTPClient:         &http.Client{Transport: pt, Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("boot behind a partition must not fail: %v", err)
	}
	t.Cleanup(func() { b.Close() })

	if b.Status().Connected {
		t.Error("replica reports connected behind a partition")
	}
	if err := save(b, confRecord("offline")); err != nil {
		t.Fatalf("local-only write failed: %v", err)
	}
	if _, ok := load(b, "early"); ok {
		t.Error("hub state visible through a partition")
	}

	pt.down.Store(false)
	waitUntil(t, "degraded replica to converge", func() bool {
		st := b.Status()
		if !st.Connected || st.Pending != 0 {
			return false
		}
		_, okEarly := load(b, "early")
		_, okOff := load(a, "offline")
		return okEarly && okOff
	})
}

// TestReplConcurrentWritersConverge hammers one key from two replicas under
// last-writer-wins; both must settle on the same record.
func TestReplConcurrentWritersConverge(t *testing.T) {
	hubURL := startHub(t)
	a := openReplica(t, hubURL, "replica-a", http.DefaultTransport)
	b := openReplica(t, hubURL, "replica-b", http.DefaultTransport)

	for i := 0; i < 10; i++ {
		rec := confRecord("contested")
		rec.Rounds = i
		var err error
		if i%2 == 0 {
			err = save(a, rec)
		} else {
			err = save(b, rec)
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	waitUntil(t, "both replicas to agree", func() bool {
		if a.Status().Pending != 0 || b.Status().Pending != 0 {
			return false
		}
		ra, okA := load(a, "contested")
		rb, okB := load(b, "contested")
		return okA && okB && ra.Rounds == rb.Rounds
	})
}

// TestReplWatchDeliversPeerUpdates verifies the live warm-start signal: a
// watch on one replica fires when a peer's record arrives via the hub.
func TestReplWatchDeliversPeerUpdates(t *testing.T) {
	hubURL := startHub(t)
	a := openReplica(t, hubURL, "replica-a", http.DefaultTransport)
	b := openReplica(t, hubURL, "replica-b", http.DefaultTransport)

	got := make(chan store.VersionedRecord, 8)
	cancel := b.Watch(func(vr store.VersionedRecord) { got <- vr })
	defer cancel()

	if err := save(a, confRecord("observed")); err != nil {
		t.Fatal(err)
	}
	select {
	case vr := <-got:
		if vr.Key.Section != "observed" {
			t.Errorf("watch fired for %q, want observed", vr.Key.Section)
		}
		if vr.Origin != "replica-a" {
			t.Errorf("origin %q, want replica-a", vr.Origin)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never fired for a peer update")
	}
}

// TestReplCloseFlushesPending verifies a drain races nothing: records written
// just before Close still reach the hub, so a successor replica inherits
// them.
func TestReplCloseFlushesPending(t *testing.T) {
	hubURL := startHub(t)
	a := openReplica(t, hubURL, "replica-a", http.DefaultTransport)
	for i := 0; i < 4; i++ {
		if err := save(a, confRecord(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b := openReplica(t, hubURL, "replica-b", http.DefaultTransport)
	for i := 0; i < 4; i++ {
		if _, ok := load(b, fmt.Sprintf("s%d", i)); !ok {
			t.Errorf("record s%d lost across drain", i)
		}
	}
}

// beforePush is an http.RoundTripper that runs fn once, just before it
// forwards the first POST /v1/push.
type beforePush struct {
	once sync.Once
	fn   func()
}

func (b *beforePush) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/v1/push" {
		b.once.Do(b.fn)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestReplPushAckDoesNotAdvanceWatchCursor pins the watch cursor to what the
// replica has actually read. A peer record the hub sequences between the
// replica's /v1/state read and its own bootstrap /v1/push sits below the
// sequence the push acknowledgement reports; a cursor advanced from that
// acknowledgement would skip it for good.
func TestReplPushAckDoesNotAdvanceWatchCursor(t *testing.T) {
	h, err := hub.New(hub.Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	t.Cleanup(srv.Close)

	local := store.NewMemStore()
	if err := save(local, confRecord("mine")); err != nil {
		t.Fatal(err)
	}
	rec := confRecord("peer")
	peer := store.VersionedRecord{
		Key:    store.Key{Section: rec.Section, Env: rec.Fingerprint.Hash()},
		Record: rec, Clock: 1, Origin: "replica-b",
	}
	rt := &beforePush{fn: func() {
		if _, applied, err := h.Apply([]store.VersionedRecord{peer}); err != nil || applied != 1 {
			t.Errorf("hub.Apply(peer): applied %d, err %v", applied, err)
		}
	}}
	a := openReplicaOver(t, srv.URL, "replica-a", rt, local)
	waitUntil(t, "the peer record sequenced before the bootstrap push", func() bool {
		_, ok := load(a, "peer")
		return ok
	})
}
