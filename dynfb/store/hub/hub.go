// Package hub implements the dfstored replication hub: the rendezvous
// point a fleet of dfserved replicas pushes winner records to and
// subscribes to peer updates from.
//
// The hub is deliberately small: a sequence index over a store.Backend. The
// backend holds the fleet's current policy knowledge, one versioned record
// per (tenant, section, environment) key; the hub merges pushes into it by
// last-writer-wins (store.MergeLWW: Lamport clock, then update time, then
// origin id — a total, deterministic order) and assigns every update that
// won a monotonically increasing hub sequence number that replicas use as
// a watch cursor. Replicas push with
// POST /v1/push, bootstrap with GET /v1/state, and follow the stream with
// long-polling GET /v1/watch?since=N. The hub never initiates
// connections, so a replica behind NAT or a partition simply reconnects
// and resyncs; nothing on the hub side tracks replica liveness.
//
// Knowledge on the hub is a cache, exactly like every other store layer:
// over a durable backing Backend (dfstored -data uses the embedded KV
// store) it survives restarts, and over the default in-memory one a
// restarted hub simply refills from the replicas' next pushes and resyncs.
package hub

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/dynfb/store"
	"repro/internal/buildinfo"
	"repro/internal/metrics"
)

// Config parameterizes a Hub.
type Config struct {
	// Backing holds the hub's records: pushed updates are merged into it,
	// and its contents are sequenced at startup. Default a fresh
	// store.MemStore, which does not outlive the hub.
	Backing store.Backend
	// Logger receives structured logs. Default slog.Default().
	Logger *slog.Logger
	// MaxWatchWait bounds a long-poll watch. Default 25s.
	MaxWatchWait time.Duration
}

// Hub is the replication hub state and HTTP API.
type Hub struct {
	cfg   Config
	log   *slog.Logger
	start time.Time
	reg   *metrics.Registry

	mu     sync.Mutex
	at     map[store.Key]uint64 // the sequence at which each key last changed
	seq    uint64
	waitCh chan struct{} // closed and replaced on every applied update

	released    chan struct{} // closed by ReleaseWatches
	releaseOnce sync.Once

	mPushes   *metrics.Counter
	mApplied  *metrics.Counter
	mStale    *metrics.Counter
	mWatches  *metrics.Counter
	mRequests *metrics.Counter
}

// New builds a hub over cfg.Backing, sequencing the records it already
// holds in key order.
func New(cfg Config) (*Hub, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.MaxWatchWait <= 0 {
		cfg.MaxWatchWait = 25 * time.Second
	}
	if cfg.Backing == nil {
		cfg.Backing = store.NewMemStore()
	}
	h := &Hub{
		cfg:      cfg,
		log:      cfg.Logger,
		start:    time.Now(),
		reg:      metrics.NewRegistry(),
		at:       map[store.Key]uint64{},
		waitCh:   make(chan struct{}),
		released: make(chan struct{}),
	}
	h.mRequests = h.reg.Counter("dfstored_requests_total", "HTTP requests served.")
	h.mPushes = h.reg.Counter("dfstored_pushes_total", "Push requests received.")
	h.mApplied = h.reg.Counter("dfstored_records_applied_total", "Pushed records that won LWW and were applied.")
	h.mStale = h.reg.Counter("dfstored_records_stale_total", "Pushed records that lost LWW and were dropped.")
	h.mWatches = h.reg.Counter("dfstored_watch_requests_total", "Watch long-polls served.")
	h.reg.GaugeFunc("dfstored_records", "Records currently held.", func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(len(h.at))
	})
	h.reg.GaugeFunc("dfstored_sequence", "Hub sequence of the latest applied update.", func() float64 {
		return float64(h.Seq())
	})
	h.reg.BuildInfo()

	keys, err := cfg.Backing.List()
	if err != nil {
		return nil, fmt.Errorf("hub: seeding from backing store: %w", err)
	}
	for _, k := range keys {
		h.seq++
		h.at[k] = h.seq
	}
	if len(keys) > 0 {
		h.log.Info("hub seeded from backing store", "records", len(keys))
	}
	return h, nil
}

// StateResponse is the body of GET /v1/state and GET /v1/watch.
type StateResponse = store.HubState

// PushRequest is the body of POST /v1/push.
type PushRequest = store.HubPush

// PushResponse is the response of POST /v1/push.
type PushResponse struct {
	// Seq is the hub sequence after the push.
	Seq uint64 `json:"seq"`
	// Applied counts the records that won LWW and changed hub state.
	Applied int `json:"applied"`
}

// Apply merges records into the backing store under last-writer-wins and
// sequences each one that won, returning the resulting sequence and how
// many were applied. It is the programmatic core of POST /v1/push. A
// backing-store error fails the push: the records merged before it are
// sequenced, the rest are left to the replica's retry.
func (h *Hub) Apply(records []store.VersionedRecord) (uint64, int, error) {
	var won []store.Key
	var err error
	stale := 0
	for _, rec := range records {
		if rec.Key.Validate() != nil {
			continue
		}
		rec.Record.Section = rec.Key.Section
		applied, merr := store.MergeLWW(h.cfg.Backing, rec)
		if merr != nil {
			err = fmt.Errorf("hub: backing store: %w", merr)
			break
		}
		if applied {
			won = append(won, rec.Key)
		} else {
			stale++
		}
	}
	h.mu.Lock()
	for _, k := range won {
		h.seq++
		h.at[k] = h.seq
	}
	var wake chan struct{}
	if len(won) > 0 {
		wake = h.waitCh
		h.waitCh = make(chan struct{})
	}
	seq := h.seq
	h.mu.Unlock()

	if wake != nil {
		close(wake)
	}
	h.mApplied.Add(float64(len(won)))
	h.mStale.Add(float64(stale))
	return seq, len(won), err
}

// ReleaseWatches answers every parked watch as if its wait had expired,
// and every later one at once, so a draining listener waits only for
// in-flight pushes, not for the long-polls to time out.
func (h *Hub) ReleaseWatches() {
	h.releaseOnce.Do(func() { close(h.released) })
}

// Seq returns the hub sequence of the latest applied update.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// snapshotSince returns the current sequence, the records changed since
// the cursor in key order, and the channel that will be closed at the next
// update. A record is in the backing store before it is sequenced, so the
// records read here are at least as new as the sequence returned.
func (h *Hub) snapshotSince(since uint64) (uint64, []store.VersionedRecord, chan struct{}, error) {
	h.mu.Lock()
	var keys []store.Key
	for k, at := range h.at {
		if at > since {
			keys = append(keys, k)
		}
	}
	seq, changed := h.seq, h.waitCh
	h.mu.Unlock()
	store.SortKeys(keys)
	var out []store.VersionedRecord
	for _, k := range keys {
		rec, ok, err := h.cfg.Backing.Get(k)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("hub: backing store: %w", err)
		}
		if ok {
			out = append(out, rec)
		}
	}
	return seq, out, changed, nil
}

// Handler returns the hub's HTTP API.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/state", h.handleState)
	mux.HandleFunc("GET /v1/watch", h.handleWatch)
	mux.HandleFunc("POST /v1/push", h.handlePush)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.Handle("GET /metrics", h.reg.Handler())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.mRequests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func (h *Hub) handleState(w http.ResponseWriter, r *http.Request) {
	seq, recs, _, err := h.snapshotSince(0)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, StateResponse{Seq: seq, Records: recs})
}

func (h *Hub) handleWatch(w http.ResponseWriter, r *http.Request) {
	h.mWatches.Add(1)
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad since cursor: " + v})
			return
		}
		since = n
	}
	wait := h.cfg.MaxWatchWait
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad wait duration: " + v})
			return
		}
		if d < wait {
			wait = d
		}
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		seq, recs, changed, err := h.snapshotSince(since)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		if len(recs) > 0 || seq > since {
			writeJSON(w, http.StatusOK, StateResponse{Seq: seq, Records: recs})
			return
		}
		select {
		case <-changed:
			continue
		case <-deadline.C:
		case <-h.released:
		case <-r.Context().Done():
			return
		}
		writeJSON(w, http.StatusOK, StateResponse{Seq: seq, Records: nil})
		return
	}
}

func (h *Hub) handlePush(w http.ResponseWriter, r *http.Request) {
	h.mPushes.Add(1)
	var req PushRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad push body: " + err.Error()})
		return
	}
	seq, applied, err := h.Apply(req.Records)
	if err != nil {
		h.log.Warn("push failed; the replica keeps its records pending", "origin", req.Origin, "err", err)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if applied > 0 {
		h.log.Debug("push applied", "origin", req.Origin, "records", len(req.Records), "applied", applied, "seq", seq)
	}
	writeJSON(w, http.StatusOK, PushResponse{Seq: seq, Applied: applied})
}

func (h *Hub) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	records, seq := len(h.at), h.seq
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        buildinfo.Version(),
		"uptime_seconds": time.Since(h.start).Seconds(),
		"records":        records,
		"seq":            seq,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
