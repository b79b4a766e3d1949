// Package fleet orchestrates a dfserved fleet in-process: a dfstored
// policy hub plus N serving replicas wired to it through replicated
// stores, with a sustained-QPS load driver and /stats probes. It is the
// engine behind cmd/dfload and the fleet integration tests, and exists
// so both exercise exactly the production wiring (real HTTP listeners,
// real replication, real drain) rather than a test double.
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
)

// Hub is a running dfstored policy hub on a real listener.
type Hub struct {
	URL string
	hub *hub.Hub
	srv *http.Server
}

// StartHub starts a hub on addr ("" picks a loopback port). The backing
// backend is optional; nil keeps state in memory.
func StartHub(addr string, backing store.Backend, logger *slog.Logger) (*Hub, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	h, err := hub.New(hub.Config{Backing: backing, Logger: logger})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h.Handler()}
	go srv.Serve(lis)
	return &Hub{URL: "http://" + lis.Addr().String(), hub: h, srv: srv}, nil
}

// Close drains the hub listener.
func (h *Hub) Close() error {
	ctx, done := context.WithTimeout(context.Background(), 5*time.Second)
	defer done()
	return h.srv.Shutdown(ctx)
}

// ReplicaConfig parameterizes one serving replica.
type ReplicaConfig struct {
	// Name is the replica's identity: its store origin and report label.
	Name string
	// HubURL, when non-empty, replicates the replica's store through a
	// hub; empty runs the replica with an isolated in-memory store.
	HubURL string
	// Tenant namespaces the replica's records in the shared hub.
	Tenant string
	// Workers, TargetSampling, TargetProduction and MaxConcurrent are
	// passed through to serve.Config.
	Workers          int
	TargetSampling   time.Duration
	TargetProduction time.Duration
	MaxConcurrent    int
	// Logger receives the replica's structured logs.
	Logger *slog.Logger
}

// Replica is a running dfserved replica on a real listener.
type Replica struct {
	Name   string
	URL    string
	Server *serve.Server
	Store  *store.ReplStore // nil without a hub
	srv    *http.Server
}

// StartReplica boots a replica and waits for its listener.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	scfg := serve.Config{
		Workers:          cfg.Workers,
		TargetSampling:   cfg.TargetSampling,
		TargetProduction: cfg.TargetProduction,
		MaxConcurrent:    cfg.MaxConcurrent,
		Tenant:           cfg.Tenant,
		Logger:           cfg.Logger,
	}
	var rs *store.ReplStore
	if cfg.HubURL != "" {
		var err error
		rs, err = store.OpenRepl(store.ReplConfig{
			HubURL: cfg.HubURL,
			Origin: cfg.Name,
			Logger: cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %s: %w", cfg.Name, err)
		}
		scfg.Backend = rs
	} else {
		scfg.Backend = store.NewMemStore()
	}
	sv, err := serve.New(scfg)
	if err != nil {
		if rs != nil {
			rs.Close()
		}
		return nil, fmt.Errorf("fleet: replica %s: %w", cfg.Name, err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		if rs != nil {
			rs.Close()
		}
		return nil, fmt.Errorf("fleet: replica %s: %w", cfg.Name, err)
	}
	srv := &http.Server{Handler: sv.Handler()}
	go srv.Serve(lis)
	return &Replica{
		Name:   cfg.Name,
		URL:    "http://" + lis.Addr().String(),
		Server: sv,
		Store:  rs,
		srv:    srv,
	}, nil
}

// Drain gracefully shuts the replica down in production order: stop
// accepting connections and wait for in-flight requests, persist every
// section's record, then flush the replicated store to the hub.
func (r *Replica) Drain(ctx context.Context) error {
	err := r.srv.Shutdown(ctx)
	if perr := r.Server.Close(); err == nil {
		err = perr
	}
	if r.Store != nil {
		if serr := r.Store.Close(); err == nil {
			err = serr
		}
	}
	return err
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
	if cfg.QPS <= 0 {
		cfg.QPS = 50
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
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
		tick    = time.NewTicker(time.Duration(float64(time.Second) / cfg.QPS)) //dfvet:allow walltime paces the live request load at the configured QPS
		started = time.Now()                                                    //dfvet:allow walltime wall-clock start of the load run for the report
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
