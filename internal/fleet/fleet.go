// Package fleet starts, runs and drains the members of a dfserved fleet:
// a dfstored policy hub and serving replicas wired to it through
// replicated stores, plus a sustained-QPS load driver and /stats probes.
// cmd/dfserved and cmd/dfstored are flag parsers over StartReplica and
// StartHub, and cmd/dfload and the fleet integration tests make the same
// calls in-process, so all of them run exactly the production wiring
// (real HTTP listeners, real replication, real drain) rather than a copy
// of it.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynfb"
	"repro/dynfb/store"
	"repro/dynfb/store/hub"
	"repro/internal/serve"
	"repro/internal/simcache"
)

// DrainTimeout is how long a drain waits for in-flight requests before it
// force-closes the connections still open.
const DrainTimeout = 10 * time.Second

// NewLogger returns a structured logger writing to w in format "text" or
// "json".
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

// OpenKV opens the KV store directory dir and logs any damage its open
// tolerated; dir "" opens nothing and returns a nil Backend.
func OpenKV(dir string, logger *slog.Logger) (store.Backend, error) {
	if dir == "" {
		return nil, nil
	}
	kv, err := store.OpenKV(dir)
	if err != nil {
		return nil, err
	}
	if warn := kv.LoadWarning(); warn != "" {
		logger.Warn("store loaded with damage tolerated", "dir", dir, "warning", warn)
	}
	return kv, nil
}

// listen serves h on addr ("" picks a loopback port) and returns the
// server with its base URL.
func listen(addr string, h http.Handler) (*http.Server, string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(lis) // returns http.ErrServerClosed once a drain begins
	return srv, "http://" + lis.Addr().String(), nil
}

// drain is the one shutdown order: stop accepting connections and wait
// for in-flight requests; once ctx expires, force-close the connections
// still open; then close cs in order. It returns the first error.
func drain(ctx context.Context, srv *http.Server, cs ...io.Closer) error {
	err := srv.Shutdown(ctx)
	if err != nil {
		srv.Close()
	}
	return closeAll(err, cs...)
}

// closeAll closes every non-nil closer in order and returns err, or else
// the first close error.
func closeAll(err error, cs ...io.Closer) error {
	for _, c := range cs {
		if c == nil {
			continue
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Hub is a running dfstored policy hub on a real listener.
type Hub struct {
	URL     string
	srv     *http.Server
	backing store.Backend
}

// StartHub starts a hub on addr ("" picks a loopback port) over backing,
// which Close then closes; a nil backing keeps the state in memory.
func StartHub(addr string, backing store.Backend, logger *slog.Logger) (*Hub, error) {
	h, err := hub.New(hub.Config{Backing: backing, Logger: logger})
	if err != nil {
		return nil, err
	}
	srv, url, err := listen(addr, h.Handler())
	if err != nil {
		return nil, err
	}
	srv.RegisterOnShutdown(h.ReleaseWatches)
	return &Hub{URL: url, srv: srv, backing: backing}, nil
}

// Close drains the hub within DrainTimeout: it answers the parked watches
// as if their waits had expired, waits for in-flight pushes, and closes
// the backing store.
func (h *Hub) Close() error {
	ctx, done := context.WithTimeout(context.Background(), DrainTimeout)
	defer done()
	return drain(ctx, h.srv, h.backing)
}

// ReplicaConfig parameterizes one serving replica.
type ReplicaConfig struct {
	// Name is the replica's identity: its store origin and report label.
	// Default host:pid.
	Name string
	// Addr is the listen address; "" picks a loopback port.
	Addr string
	// HubURL, when non-empty, replicates the replica's store through a
	// hub.
	HubURL string
	// KVDir, when non-empty, is the KV store directory holding the
	// replica's records (with a hub, its copy of the fleet's). With
	// neither HubURL nor KVDir the replica keeps no store.
	KVDir string
	// Tenant namespaces the replica's records in the shared hub.
	Tenant string
	// SimcacheDir, when non-empty, is the simulation cache directory for
	// OBL runs.
	SimcacheDir string
	// Workers, TargetSampling, TargetProduction, MaxConcurrent, ColdStart
	// and Controller are passed through to serve.Config.
	Workers          int
	TargetSampling   time.Duration
	TargetProduction time.Duration
	MaxConcurrent    int
	ColdStart        bool
	Controller       string
	// Logger receives the replica's structured logs. Default
	// slog.Default().
	Logger *slog.Logger
}

// Replica is a running dfserved replica on a real listener.
type Replica struct {
	Name   string
	URL    string
	Server *serve.Server
	store  store.Backend // nil when the replica keeps no store
	srv    *http.Server
}

// StartReplica boots a replica and starts its listener.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	r, err := startReplica(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", cfg.Name, err)
	}
	return r, nil
}

func startReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	scfg := serve.Config{
		Workers:          cfg.Workers,
		TargetSampling:   cfg.TargetSampling,
		TargetProduction: cfg.TargetProduction,
		MaxConcurrent:    cfg.MaxConcurrent,
		ColdStart:        cfg.ColdStart,
		Tenant:           cfg.Tenant,
		Logger:           cfg.Logger,
		Controller:       cfg.Controller,
	}
	if cfg.SimcacheDir != "" {
		c, err := simcache.New(simcache.Config{Dir: cfg.SimcacheDir})
		if err != nil {
			return nil, err
		}
		scfg.Cache = c
	}
	// The local store; with a hub it becomes the replication cache (a
	// fresh memory one when nil).
	backend, err := OpenKV(cfg.KVDir, cfg.Logger)
	if err != nil {
		return nil, err
	}
	if cfg.HubURL != "" {
		rs, err := store.OpenRepl(store.ReplConfig{
			HubURL: cfg.HubURL,
			Origin: cfg.Name,
			Local:  backend,
			Logger: cfg.Logger,
		})
		if err != nil {
			return nil, closeAll(err, backend)
		}
		backend = rs
	}
	scfg.Backend = backend
	sv, err := serve.New(scfg)
	if err != nil {
		return nil, closeAll(err, backend)
	}
	srv, url, err := listen(cfg.Addr, sv.Handler())
	if err != nil {
		return nil, closeAll(err, sv, backend)
	}
	return &Replica{Name: cfg.Name, URL: url, Server: sv, store: backend, srv: srv}, nil
}

// Drain shuts the replica down in production order: stop accepting
// connections and wait for in-flight requests; once ctx expires,
// force-close the connections still open; persist every section's
// record; close the store, which flushes a replicated store's pending
// pushes to the hub. It returns the first error, ctx's expiry included.
func (r *Replica) Drain(ctx context.Context) error {
	return drain(ctx, r.srv, r.Server, r.store)
}

// LoadConfig parameterizes the load driver.
type LoadConfig struct {
	// Section is the native section to drive (e.g. "sort").
	Section string
	// Iters is the per-request iteration count (0 = the section default).
	Iters int
	// QPS is the sustained request rate. Default 50.
	QPS float64
	// Duration bounds the drive. Default 5s.
	Duration time.Duration
	// Concurrency caps in-flight requests. Default 4.
	Concurrency int
	// Until, when non-nil, is polled after each response; the drive stops
	// early once it returns true (e.g. "the section has a winner").
	Until func() bool
}

// LoadReport summarizes one drive.
type LoadReport struct {
	Requests int64         `json:"requests"`
	Errors   int64         `json:"errors"`
	Elapsed  time.Duration `json:"elapsed_ns"`
}

// Drive sends sustained POST /run traffic at cfg.QPS until the duration
// elapses, the context is canceled, or cfg.Until reports done.
func Drive(ctx context.Context, baseURL string, cfg LoadConfig) LoadReport {
	if !(cfg.QPS > 0) { // NaN too
		cfg.QPS = 50
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	// One tick per request, 1 ns apart at the fastest; a rate slower than
	// one request per drive ticks once per Duration, after the deadline.
	interval := max(time.Duration(min(float64(time.Second)/cfg.QPS, float64(cfg.Duration))), 1)
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	body, _ := json.Marshal(map[string]any{"section": cfg.Section, "iters": cfg.Iters})

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var (
		report  LoadReport
		wg      sync.WaitGroup
		done    atomic.Bool
		slots   = make(chan struct{}, cfg.Concurrency)
		tick    = time.NewTicker(interval) //dfvet:allow walltime paces the live request load at the configured QPS
		started = time.Now()               //dfvet:allow walltime wall-clock start of the load run for the report
	)
	defer tick.Stop()
	for !done.Load() {
		select {
		case <-ctx.Done():
			done.Store(true)
		case <-tick.C:
			select {
			case slots <- struct{}{}:
			default:
				continue // all slots busy: shed this tick rather than queue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				if err := postRun(ctx, baseURL, body); err != nil {
					if ctx.Err() != nil {
						// Cut off by the load deadline mid-flight: the
						// generator's own shutdown, not a server failure.
						return
					}
					atomic.AddInt64(&report.Errors, 1)
				}
				atomic.AddInt64(&report.Requests, 1)
				if cfg.Until != nil && cfg.Until() {
					done.Store(true)
				}
			}()
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(started) //dfvet:allow walltime wall-clock elapsed of the load run for the report
	return report
}

func postRun(ctx context.Context, baseURL string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/run", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: /run: %s", resp.Status)
	}
	return nil
}

// StatsProbe is a parsed /stats response.
type StatsProbe struct {
	Tenant        string
	WarmStartHits int64
	Connected     bool
	HubSeq        uint64
	Pending       int
	Sections      map[string]dynfb.Snapshot
}

// statsDoc is the part of the serve /stats document a probe reads.
type statsDoc struct {
	Server struct {
		Tenant        string `json:"tenant"`
		WarmStartHits int64  `json:"warm_start_hits"`
	} `json:"server"`
	Sections  map[string]dynfb.Snapshot `json:"sections"`
	StoreSync *struct {
		Connected     bool   `json:"connected"`
		HubSeq        uint64 `json:"hub_seq"`
		PendingPushes int    `json:"pending_pushes"`
	} `json:"store_sync"`
}

// Probe fetches and parses a replica's /stats.
func Probe(ctx context.Context, baseURL string) (StatsProbe, error) {
	var doc statsDoc
	if err := getJSON(ctx, baseURL+"/stats", &doc); err != nil {
		return StatsProbe{}, err
	}
	out := StatsProbe{
		Tenant:        doc.Server.Tenant,
		WarmStartHits: doc.Server.WarmStartHits,
		Sections:      doc.Sections,
	}
	if doc.StoreSync != nil {
		out.Connected = doc.StoreSync.Connected
		out.HubSeq = doc.StoreSync.HubSeq
		out.Pending = doc.StoreSync.PendingPushes
	}
	return out, nil
}

// sampledIntervals totals a section's sampling intervals across variants.
func sampledIntervals(snap dynfb.Snapshot) int {
	n := 0
	for _, v := range snap.Stats {
		n += v.TimesSampled
	}
	return n
}

// ScrapeMetrics fetches a /metrics endpoint's raw text.
func ScrapeMetrics(ctx context.Context, baseURL string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: /metrics: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// WaitFor polls fn every interval until it reports true, the context is
// canceled, or the timeout elapses.
func WaitFor(ctx context.Context, timeout, interval time.Duration, fn func() bool) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		if fn() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval): //dfvet:allow walltime real-time retry backoff between hub sync attempts
		}
	}
}
