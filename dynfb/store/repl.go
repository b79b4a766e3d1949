package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"
)

// ReplConfig parameterizes a ReplStore.
type ReplConfig struct {
	// HubURL is the base URL of the dfstored hub (e.g.
	// "http://hub:9090"). Required.
	HubURL string
	// Origin identifies this replica in last-writer-wins resolution and
	// in hub logs. Default "host:pid".
	Origin string
	// Local is the backend holding this replica's copy of the fleet's
	// knowledge. Default a fresh MemStore; pass an OpenKV store to keep
	// the copy across restarts (a replica then warm-starts even while
	// partitioned from the hub).
	Local Backend
	// InitialSyncTimeout bounds the blocking bootstrap sync in OpenRepl;
	// when it expires the replica starts degraded (local-only) and keeps
	// retrying in the background. Default 5s; negative skips the
	// blocking sync entirely.
	InitialSyncTimeout time.Duration
	// PollWait is the long-poll watch duration asked of the hub.
	// Default 20s.
	PollWait time.Duration
	// RetryMin and RetryMax bound the reconnect backoff. Defaults
	// 250ms and 15s.
	RetryMin, RetryMax time.Duration
	// Logger receives structured logs. Default slog.Default().
	Logger *slog.Logger
	// HTTPClient overrides the hub transport (tests use it to inject
	// partitions). Default a client with sane timeouts.
	HTTPClient *http.Client
}

// ReplStatus is a snapshot of a replica's link to the hub.
type ReplStatus struct {
	// Connected reports whether the last hub exchange succeeded; false
	// means the replica is degraded to local-only and retrying.
	Connected bool `json:"connected"`
	// LastSyncUnixNano is the wall clock of the last successful hub
	// exchange (0 before the first).
	LastSyncUnixNano int64 `json:"last_sync_unix_nano"`
	// HubSeq is the watch cursor: the hub sequence this replica has
	// caught up to.
	HubSeq uint64 `json:"hub_seq"`
	// Pending counts local writes not yet acknowledged by the hub.
	Pending int `json:"pending"`
}

// SyncLag returns how long ago the last successful hub exchange was, or
// -1 before the first one.
func (s ReplStatus) SyncLag(now time.Time) time.Duration {
	if s.LastSyncUnixNano == 0 {
		return -1
	}
	return now.Sub(time.Unix(0, s.LastSyncUnixNano))
}

// ReplStore replicates a local backend through a dfstored hub: local
// writes are pushed to the hub, and peer updates stream back through a
// long-polling watch, merged under last-writer-wins. The hub is an
// availability optimization, never a dependency: when it is unreachable
// the replica degrades to local-only operation (Puts keep succeeding,
// marked pending), and on reconnect it resyncs — pull the hub's state,
// merge, push everything local — so the fleet reconverges without losing
// either side's newer records. It implements both Store and Backend.
type ReplStore struct {
	tenantStore // the default tenant's Store view over this replica

	cfg    ReplConfig
	local  Backend
	log    *slog.Logger
	client *http.Client
	origin string

	mu        sync.Mutex
	pending   map[Key]VersionedRecord
	connected bool
	lastSync  time.Time
	hubSeq    uint64
	closed    bool

	wake   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// OpenRepl connects a replica to the hub. It attempts one blocking
// bootstrap sync (bounded by InitialSyncTimeout) so that a replica booted
// after its peers immediately sees their knowledge — the warm-start path
// — and then maintains the link in the background, degrading to
// local-only over partitions and resyncing on reconnect.
func OpenRepl(cfg ReplConfig) (*ReplStore, error) {
	if cfg.HubURL == "" {
		return nil, fmt.Errorf("store: replication needs a hub URL")
	}
	if _, err := url.Parse(cfg.HubURL); err != nil {
		return nil, fmt.Errorf("store: bad hub URL: %w", err)
	}
	if cfg.Origin == "" {
		host, _ := os.Hostname()
		cfg.Origin = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.Local == nil {
		cfg.Local = NewMemStore()
	}
	if cfg.InitialSyncTimeout == 0 {
		cfg.InitialSyncTimeout = 5 * time.Second
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 20 * time.Second
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 250 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = 15 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.PollWait + 10*time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &ReplStore{
		cfg:     cfg,
		local:   cfg.Local,
		log:     cfg.Logger.With("origin", cfg.Origin),
		client:  cfg.HTTPClient,
		origin:  cfg.Origin,
		pending: map[Key]VersionedRecord{},
		wake:    make(chan struct{}, 1),
		ctx:     ctx,
		cancel:  cancel,
	}
	r.tenantStore.b = r
	if cfg.InitialSyncTimeout > 0 {
		syncCtx, done := context.WithTimeout(ctx, cfg.InitialSyncTimeout)
		if err := r.resync(syncCtx); err != nil {
			r.log.Warn("hub unreachable at boot; starting local-only", "hub", cfg.HubURL, "err", err)
		}
		done()
	}
	r.wg.Add(2)
	go r.watchLoop()
	go r.pushLoop()
	return r, nil
}

// Origin returns this replica's identity.
func (r *ReplStore) Origin() string { return r.origin }

// HubURL returns the hub this replica replicates through.
func (r *ReplStore) HubURL() string { return r.cfg.HubURL }

// Status returns a snapshot of the hub link.
func (r *ReplStore) Status() ReplStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReplStatus{
		Connected: r.connected,
		HubSeq:    r.hubSeq,
		Pending:   len(r.pending),
	}
	if !r.lastSync.IsZero() {
		st.LastSyncUnixNano = r.lastSync.UnixNano()
	}
	return st
}

// Get implements Backend.
func (r *ReplStore) Get(k Key) (VersionedRecord, bool, error) { return r.local.Get(k) }

// List implements Backend.
func (r *ReplStore) List() ([]Key, error) { return r.local.List() }

// Watch implements Backend: watchers observe every applied local write,
// whether it originated here or merged in from a peer.
func (r *ReplStore) Watch(fn func(VersionedRecord)) (cancel func()) { return r.local.Watch(fn) }

// Put implements Backend: the write applies locally first (so the replica
// keeps its own knowledge even while partitioned) and is then pushed to
// the hub asynchronously.
func (r *ReplStore) Put(rec VersionedRecord, prev uint64) (VersionedRecord, error) {
	rec.Origin = r.origin
	stored, err := r.local.Put(rec, prev)
	if err != nil {
		return stored, err
	}
	r.mu.Lock()
	if !r.closed {
		r.pending[stored.Key] = stored
	}
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return stored, nil
}

// Close stops replication (after one best-effort push of pending writes)
// and closes the local backend.
func (r *ReplStore) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	// Stop the loops first so the final flush below is the only pusher,
	// then flush what we can without holding shutdown hostage to a
	// partition.
	r.cancel()
	r.wg.Wait()
	flushCtx, done := context.WithTimeout(context.Background(), 2*time.Second)
	r.pushPending(flushCtx)
	done()
	return r.local.Close()
}

// hubState mirrors hub.StateResponse without importing the hub package
// (the hub package imports store).
type hubState struct {
	Seq     uint64            `json:"seq"`
	Records []VersionedRecord `json:"records"`
}

type hubPush struct {
	Origin  string            `json:"origin,omitempty"`
	Records []VersionedRecord `json:"records"`
}

// pushAck is the body of a push acknowledgement. Its hub sequence is
// deliberately not read: the watch cursor (hubSeq) advances only from
// /v1/state and /v1/watch responses, whose records the replica has merged.
// A push is sequenced after whatever peers wrote since the last read, so
// adopting its sequence would skip those records for good; the replica's
// own records coming back on the next watch are LWW no-ops.
type pushAck struct{}

// watchLoop follows the hub's update stream, resyncing from scratch after
// every disconnect.
func (r *ReplStore) watchLoop() {
	defer r.wg.Done()
	backoff := r.cfg.RetryMin
	for r.ctx.Err() == nil {
		if !r.isConnected() {
			if err := r.resync(r.ctx); err != nil {
				if r.ctx.Err() != nil {
					return
				}
				select {
				case <-time.After(backoff):
				case <-r.ctx.Done():
					return
				}
				backoff = min(backoff*2, r.cfg.RetryMax)
				continue
			}
			r.log.Info("hub link established", "hub", r.cfg.HubURL, "seq", r.cursor())
			backoff = r.cfg.RetryMin
		}
		if err := r.watchOnce(); err != nil {
			if r.ctx.Err() != nil {
				return
			}
			r.setConnected(false)
			r.log.Warn("hub link lost; degrading to local-only", "err", err)
		}
	}
}

// pushLoop drains pending local writes to the hub as they appear, so a
// winner discovered here reaches the fleet promptly even while the watch
// long-poll is parked.
func (r *ReplStore) pushLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.RetryMax)
	defer ticker.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-r.wake:
		case <-ticker.C: // retry tick for writes stranded by a partition
		}
		if r.isConnected() {
			r.pushPending(r.ctx)
		}
	}
}

// resync is the reconnect protocol: pull the hub's full state, merge it
// locally under LWW, then push every local record (which covers both
// pending writes and anything the hub lost in a restart). On success the
// replica is connected with a fresh watch cursor.
func (r *ReplStore) resync(ctx context.Context) error {
	var state hubState
	if err := r.getJSON(ctx, "/v1/state", &state); err != nil {
		return err
	}
	for _, rec := range state.Records {
		if _, err := MergeLWW(r.local, rec); err != nil {
			return fmt.Errorf("store: merging hub state: %w", err)
		}
	}
	keys, err := r.local.List()
	if err != nil {
		return err
	}
	push := hubPush{Origin: r.origin}
	for _, k := range keys {
		vr, ok, err := r.local.Get(k)
		if err != nil {
			return err
		}
		if ok {
			push.Records = append(push.Records, vr)
		}
	}
	if len(push.Records) > 0 {
		if err := r.postJSON(ctx, "/v1/push", push, &pushAck{}); err != nil {
			return err
		}
	}
	pushed := make(map[Key]uint64, len(push.Records))
	for _, vr := range push.Records {
		pushed[vr.Key] = vr.Version
	}
	r.mu.Lock()
	r.hubSeq = state.Seq
	// Only clear pending entries the push actually covered: a Put that
	// raced in after the List above stays pending for the push loop.
	for k, vr := range r.pending {
		if pv, ok := pushed[k]; ok && pv >= vr.Version {
			delete(r.pending, k)
		}
	}
	r.connected = true
	r.lastSync = time.Now()
	r.mu.Unlock()
	return nil
}

// watchOnce performs one long-poll and merges whatever it returns.
func (r *ReplStore) watchOnce() error {
	var state hubState
	path := fmt.Sprintf("/v1/watch?since=%d&wait=%s", r.cursor(), r.cfg.PollWait)
	if err := r.getJSON(r.ctx, path, &state); err != nil {
		return err
	}
	for _, rec := range state.Records {
		applied, err := MergeLWW(r.local, rec)
		if err != nil {
			return fmt.Errorf("store: merging hub update: %w", err)
		}
		if applied {
			r.log.Debug("merged peer record", "key", rec.Key.String(), "peer", rec.Origin)
		}
	}
	r.mu.Lock()
	if state.Seq > r.hubSeq {
		r.hubSeq = state.Seq
	}
	r.lastSync = time.Now()
	r.mu.Unlock()
	return nil
}

// pushPending sends the pending set in one batch, clearing the entries
// that made it.
func (r *ReplStore) pushPending(ctx context.Context) {
	r.mu.Lock()
	if len(r.pending) == 0 {
		r.mu.Unlock()
		return
	}
	keys := make([]Key, 0, len(r.pending))
	for k := range r.pending {
		keys = append(keys, k)
	}
	SortKeys(keys)
	// Key order, so the hub assigns sequence numbers to a flush's records
	// deterministically regardless of map iteration.
	batch := make([]VersionedRecord, 0, len(keys))
	for _, k := range keys {
		batch = append(batch, r.pending[k])
	}
	r.mu.Unlock()

	if err := r.postJSON(ctx, "/v1/push", hubPush{Origin: r.origin, Records: batch}, &pushAck{}); err != nil {
		if ctx.Err() != nil {
			// The context, not the hub, aborted the push (shutdown or
			// flush deadline); the link may be fine.
			r.log.Debug("push aborted", "records", len(batch), "err", err)
			return
		}
		r.setConnected(false)
		r.log.Warn("push to hub failed; writes kept pending", "records", len(batch), "err", err)
		return
	}
	r.mu.Lock()
	for i, k := range keys {
		// A newer local write may have replaced the pending entry while
		// the push was in flight; only clear what was actually sent.
		if cur, ok := r.pending[k]; ok && cur.Version == batch[i].Version {
			delete(r.pending, k)
		}
	}
	r.lastSync = time.Now()
	r.mu.Unlock()
}

func (r *ReplStore) isConnected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

func (r *ReplStore) setConnected(v bool) {
	r.mu.Lock()
	r.connected = v
	r.mu.Unlock()
}

func (r *ReplStore) cursor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hubSeq
}

func (r *ReplStore) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.HubURL+path, nil)
	if err != nil {
		return err
	}
	return r.doJSON(req, out)
}

func (r *ReplStore) postJSON(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.HubURL+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.doJSON(req, out)
}

func (r *ReplStore) doJSON(req *http.Request, out any) error {
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("store: hub %s: status %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
