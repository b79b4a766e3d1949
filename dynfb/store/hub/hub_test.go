package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/dynfb/store"
)

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func newHub(t *testing.T, backing store.Backend) *Hub {
	t.Helper()
	h, err := New(Config{Backing: backing, Logger: quiet(), MaxWatchWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// rec builds a pushable record for section at the given Lamport clock.
func rec(section string, clock uint64, origin string) store.VersionedRecord {
	return store.VersionedRecord{
		Key:    store.Key{Section: section, Env: "env"},
		Record: store.Record{Section: section, Winner: origin},
		Clock:  clock, Origin: origin,
	}
}

// serve runs one GET through the hub's handler.
func serve(h *Hub, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// push runs one POST /v1/push through the hub's handler.
func push(h *Hub, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/push", bytes.NewReader(body)))
	return w
}

// get is serve plus decoding a 200 body as a StateResponse.
func get(t *testing.T, h *Hub, path string) (int, StateResponse) {
	t.Helper()
	return decode(t, path, serve(h, path))
}

func decode(t *testing.T, path string, w *httptest.ResponseRecorder) (int, StateResponse) {
	t.Helper()
	var out StateResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: %v in %q", path, err, w.Body)
		}
	}
	return w.Code, out
}

func sections(recs []store.VersionedRecord) []string {
	var out []string
	for _, r := range recs {
		out = append(out, r.Key.Section)
	}
	return out
}

// TestApplyLastWriterWins pins the merge: a newer record wins and takes a
// fresh sequence, an older or equal one is stale and moves nothing, an
// unaddressable key is skipped without being counted, and every applied
// record gets its own, strictly increasing sequence.
func TestApplyLastWriterWins(t *testing.T) {
	h := newHub(t, nil)
	seq, applied, err := h.Apply([]store.VersionedRecord{rec("a", 1, "r1"), rec("b", 1, "r1")})
	if err != nil || seq != 2 || applied != 2 {
		t.Fatalf("first push: seq %d applied %d err %v, want 2 2 nil", seq, applied, err)
	}
	if h.at[rec("a", 0, "").Key] != 1 || h.at[rec("b", 0, "").Key] != 2 {
		t.Errorf("records of one push share a sequence: a=%d b=%d",
			h.at[rec("a", 0, "").Key], h.at[rec("b", 0, "").Key])
	}

	// Same clock, same origin: not newer. Lower clock: not newer.
	seq, applied, _ = h.Apply([]store.VersionedRecord{rec("a", 1, "r1"), rec("b", 0, "r9")})
	if seq != 2 || applied != 0 {
		t.Errorf("stale push: seq %d applied %d, want 2 0", seq, applied)
	}
	if got := h.mStale.Value(); got != 2 {
		t.Errorf("stale counter %v, want 2", got)
	}

	invalid := []store.VersionedRecord{
		{Key: store.Key{Env: "env"}, Clock: 9},   // no section
		{Key: store.Key{Section: "c"}, Clock: 9}, // no environment
	}
	seq, applied, _ = h.Apply(append(invalid, rec("a", 2, "r2")))
	if seq != 3 || applied != 1 {
		t.Errorf("winning push beside invalid keys: seq %d applied %d, want 3 1", seq, applied)
	}
	if len(h.at) != 2 {
		t.Errorf("hub holds %d records, want 2 (invalid keys must be skipped)", len(h.at))
	}
	if got := h.mStale.Value(); got != 2 {
		t.Errorf("invalid keys counted as stale: counter %v, want 2", got)
	}
	k := rec("a", 0, "").Key
	if got, _, _ := h.cfg.Backing.Get(k); h.at[k] != 3 || got.Origin != "r2" {
		t.Errorf("a after the winning push: seq %d origin %q, want 3 r2", h.at[k], got.Origin)
	}
}

// TestWatchSince pins the cursor contract replicas depend on: a watch
// returns exactly the records sequenced after the cursor, sorted by key,
// with the hub's current sequence.
func TestWatchSince(t *testing.T) {
	h := newHub(t, nil)
	for _, s := range []string{"c", "a", "d", "b"} { // sequences 1..4
		h.Apply([]store.VersionedRecord{rec(s, 1, "r1")})
	}
	for _, tc := range []struct {
		since string
		want  []string
	}{
		{"0", []string{"a", "b", "c", "d"}},
		{"2", []string{"b", "d"}},
		{"3", []string{"b"}},
	} {
		code, got := get(t, h, "/v1/watch?wait=0s&since="+tc.since)
		if code != http.StatusOK || got.Seq != 4 || !reflect.DeepEqual(sections(got.Records), tc.want) {
			t.Errorf("since=%s: status %d seq %d records %v, want 200 4 %v",
				tc.since, code, got.Seq, sections(got.Records), tc.want)
		}
	}
	// An update re-sequences its record past a cursor that had covered it.
	h.Apply([]store.VersionedRecord{rec("c", 2, "r1")})
	if _, got := get(t, h, "/v1/watch?wait=0s&since=4"); got.Seq != 5 || !reflect.DeepEqual(sections(got.Records), []string{"c"}) {
		t.Errorf("after update: seq %d records %v, want 5 [c]", got.Seq, sections(got.Records))
	}
	if code, got := get(t, h, "/v1/state"); code != http.StatusOK || got.Seq != 5 || len(got.Records) != 4 {
		t.Errorf("state: status %d seq %d, %d records, want 200 5 4", code, got.Seq, len(got.Records))
	}
}

// TestWatchWaitTimeout: a caught-up watcher gets the current sequence and
// no records once its wait expires, and is woken early by an update.
func TestWatchWaitTimeout(t *testing.T) {
	h := newHub(t, nil)
	h.Apply([]store.VersionedRecord{rec("a", 1, "r1")})
	start := time.Now()
	code, got := get(t, h, "/v1/watch?since=1&wait=30ms")
	if code != http.StatusOK || got.Seq != 1 || len(got.Records) != 0 {
		t.Errorf("timed-out watch: status %d seq %d records %v, want 200 1 none", code, got.Seq, sections(got.Records))
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("watch returned after %v, before its 30ms wait", d)
	}

	const parked = "/v1/watch?since=1&wait=1s" // MaxWatchWait
	woken := make(chan *httptest.ResponseRecorder, 1)
	go func() { woken <- serve(h, parked) }()
	// Apply once the watcher is parked on the hub's wait channel (or before:
	// either way it must see the record).
	time.Sleep(10 * time.Millisecond)
	h.Apply([]store.VersionedRecord{rec("b", 1, "r1")})
	select {
	case w := <-woken:
		if _, got := decode(t, parked, w); got.Seq != 2 || !reflect.DeepEqual(sections(got.Records), []string{"b"}) {
			t.Errorf("woken watch: seq %d records %v, want 2 [b]", got.Seq, sections(got.Records))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an update did not wake the parked watch")
	}
}

func TestWatchRejectsMalformedQuery(t *testing.T) {
	h := newHub(t, nil)
	for _, q := range []string{"since=abc", "since=-1", "since=1.5", "wait=soon", "wait=-1s", "wait=10"} {
		if code, _ := get(t, h, "/v1/watch?"+q); code != http.StatusBadRequest {
			t.Errorf("watch?%s: status %d, want 400", q, code)
		}
	}
}

// TestRebuiltOverBackingServesSameState: the backing store is the hub's
// durability; a hub restarted over it holds the same records (sequences
// restart, which replicas handle by resyncing from /v1/state).
func TestRebuiltOverBackingServesSameState(t *testing.T) {
	backing := store.NewMemStore()
	h := newHub(t, backing)
	h.Apply([]store.VersionedRecord{rec("b", 1, "r1"), rec("a", 1, "r1")})
	h.Apply([]store.VersionedRecord{rec("a", 3, "r2"), rec("b", 0, "r3")}) // a wins, b stale
	_, before := get(t, h, "/v1/state")

	_, after := get(t, newHub(t, backing), "/v1/state")
	if len(after.Records) != 2 || after.Seq != 2 {
		t.Fatalf("rebuilt hub: seq %d, %d records, want 2 2", after.Seq, len(after.Records))
	}
	for i, want := range before.Records {
		got := after.Records[i]
		// Version is backend-local and never replicated; everything LWW
		// and the replicas read must survive.
		if got.Key != want.Key || got.Clock != want.Clock || got.Origin != want.Origin ||
			!reflect.DeepEqual(got.Record, want.Record) {
			t.Errorf("record %d after rebuild: %+v, want %+v", i, got, want)
		}
	}
}

// TestStateOrderIsKeyOrder: the tenants "" and "default" print alike
// (Key.String), so only the real key order tells their records apart; a
// hub rebuilt over the same backing store must serve them in that order
// every time, not in map order.
func TestStateOrderIsKeyOrder(t *testing.T) {
	backing := store.NewMemStore()
	named := rec("a", 1, "r1")
	named.Key.Tenant = "default"
	newHub(t, backing).Apply([]store.VersionedRecord{named, rec("a", 1, "r1")})
	for i := 0; i < 20; i++ {
		h := newHub(t, backing)
		for _, path := range []string{"/v1/state", "/v1/watch?since=0"} {
			_, got := get(t, h, path)
			var tenants []string
			for _, r := range got.Records {
				tenants = append(tenants, r.Key.Tenant)
			}
			if !reflect.DeepEqual(tenants, []string{"", "default"}) {
				t.Fatalf("rebuild %d: GET %s lists tenants %q, want \"\" before \"default\"", i, path, tenants)
			}
		}
	}
}

// failingPuts is a backing store that takes no write.
type failingPuts struct{ *store.MemStore }

func (failingPuts) Put(store.VersionedRecord, uint64) (store.VersionedRecord, error) {
	return store.VersionedRecord{}, errors.New("disk full")
}

// TestBackingFailureFailsPush: a push is acknowledged only once the backing
// store took it. When it did not, the replica gets a 500 (and keeps the
// records pending), the sequence stays put and no watcher hears of them.
func TestBackingFailureFailsPush(t *testing.T) {
	h := newHub(t, failingPuts{store.NewMemStore()})
	const parked = "/v1/watch?since=0&wait=100ms"
	watcher := make(chan *httptest.ResponseRecorder, 1)
	go func() { watcher <- serve(h, parked) }()

	body, err := json.Marshal(PushRequest{Origin: "r1", Records: []store.VersionedRecord{rec("a", 1, "r1")}})
	if err != nil {
		t.Fatal(err)
	}
	if w := push(h, body); w.Code != http.StatusInternalServerError {
		t.Errorf("push over a failing backing store: status %d, want 500", w.Code)
	}
	if h.Seq() != 0 || len(h.at) != 0 {
		t.Errorf("failed push was sequenced: seq %d, %d keys", h.Seq(), len(h.at))
	}
	if _, got := decode(t, parked, <-watcher); got.Seq != 0 || len(got.Records) != 0 {
		t.Errorf("watcher heard of a failed push: seq %d records %v", got.Seq, sections(got.Records))
	}
	if _, got := get(t, h, "/v1/state"); len(got.Records) != 0 {
		t.Errorf("state serves %v after a failed push", sections(got.Records))
	}
}

// FuzzHubPush posts an arbitrary body to a hub that already holds two
// records: the push is answered 200 or 400, never moves the sequence
// backwards, and leaves /v1/state decodable with every record addressable.
func FuzzHubPush(f *testing.F) {
	held := []store.VersionedRecord{rec("a", 1, "r1"), rec("b", 2, "r2")}
	valid, err := json.Marshal(PushRequest{Origin: "r1", Records: held})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, s := range []string{
		"", "null", "{}", "[]", `{"records":null}`, `{"records":[{}]}`, "since=abc", "wait=-1s",
		`{"records":[{"key":{"env":"env"},"clock":9},{"key":{"section":"c"},"clock":9}]}`,
		`{"records":[{"key":{"tenant":"default","section":"a","env":"env"},"clock":1,"record":{"section":"other"}}]}`,
		`{"records":[{"key":{"section":"a","env":"env"},"version":7,"clock":18446744073709551615,"record":{"policies":[{}]}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h, err := New(Config{Logger: quiet()})
		if err != nil {
			t.Fatal(err)
		}
		before, _, _ := h.Apply(held)
		w := push(h, body)
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("push %q: status %d: %s", body, w.Code, w.Body)
		}
		if h.Seq() < before {
			t.Fatalf("push %q moved the sequence from %d back to %d", body, before, h.Seq())
		}
		code, state := get(t, h, "/v1/state")
		if code != http.StatusOK || state.Seq != h.Seq() || len(state.Records) < len(held) {
			t.Fatalf("state after push %q: status %d seq %d (hub at %d), %d records", body, code, state.Seq, h.Seq(), len(state.Records))
		}
		for _, r := range state.Records {
			if r.Key.Validate() != nil || r.Record.Section != r.Key.Section {
				t.Fatalf("push %q left an unaddressable record: %+v", body, r)
			}
		}
	})
}
