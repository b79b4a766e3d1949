package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynfb/store"
	"repro/dynfb/store/hub"
)

const (
	fleetKeys  = 256
	fleetDraws = 512 // ops per cycle, ~0.3 s
	// deliveryTimeout bounds the wait for one propagation; ~1000x the
	// typical one, so hitting it is a failure, not a slow op.
	deliveryTimeout = 2 * time.Second
)

// fleetWorld is probePropagate's world: a hub on loopback HTTP with two
// replicas, A over a KV store (the writer) and B over a MemStore (the peer
// whose Watch is awaited).
type fleetWorld struct {
	dir  string
	hub  *listener
	a, b *store.ReplStore
	// delivered carries every record B's Watch reports. Watch callbacks
	// must not block, so the channel is buffered well past the one record
	// in flight (plus B's bootstrap merge of earlier keys).
	delivered   chan store.VersionedRecord
	cancelWatch func()
	conflicts   int

	tr atomic.Pointer[tracer]
	// The op in flight and when the hub answered its push: the hub wrapper
	// turns push-answered to watch-written into a span under that op.
	mu       sync.Mutex
	cur      scope
	pushedAt time.Time
}

func fleetSetup(cfg config) (*world, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "fleet-*")
	if err != nil {
		return nil, err
	}
	fw := &fleetWorld{dir: dir, delivered: make(chan store.VersionedRecord, 4*fleetKeys)}
	fail := func(err error) (*world, error) {
		fw.close()
		return nil, err
	}
	h, err := hub.New(hub.Config{Logger: quiet})
	if err != nil {
		return fail(err)
	}
	if fw.hub, err = listen(fw.wrapHub(h.Handler())); err != nil {
		return fail(err)
	}
	kv, err := store.OpenKV(dir + "/a")
	if err != nil {
		return fail(err)
	}
	if fw.a, err = store.OpenRepl(store.ReplConfig{HubURL: fw.hub.url, Origin: "A", Local: kv, Logger: quiet}); err != nil {
		kv.Close()
		return fail(err)
	}
	if fw.b, err = store.OpenRepl(store.ReplConfig{HubURL: fw.hub.url, Origin: "B", Local: store.NewMemStore(), Logger: quiet}); err != nil {
		return fail(err)
	}
	fw.cancelWatch = fw.b.Watch(func(rec store.VersionedRecord) {
		select {
		case fw.delivered <- rec:
		default: // never with one writer; a dropped record times its op out
		}
	})

	r := rand.New(rand.NewSource(cfg.seed))
	keys := make([]store.Key, fleetKeys)
	for i := range keys {
		keys[i] = store.Key{Tenant: fmt.Sprintf("t%d", r.Intn(8)), Section: fmt.Sprintf("sec-%d-%d", cfg.seed, i), Env: fmt.Sprintf("%016x", r.Uint64())}
	}
	draws := fleetDraws
	if cfg.small {
		draws = 64
	}
	ops := make([]op, draws)
	for i := range ops {
		k := keys[r.Intn(len(keys))]
		overhead := r.Float64()
		ops[i] = op{name: "propagate", run: func(sc scope) (func() error, error) { return fw.propagate(sc, k, overhead) }}
	}
	// Warm-up: the first propagations once, so both links are established
	// and most keys exist before the clock starts.
	for _, o := range ops[:min(len(ops), fleetKeys)] {
		if _, err := o.run(scope{}); err != nil {
			return fail(fmt.Errorf("warm-up propagation: %w", err))
		}
	}
	return &world{
		ops:      ops,
		onWindow: fw.tr.Store,
		verify:   fw.verify,
		layer:    func(st *windowStats, out metricSet) { out.set("fleet.cas_conflicts", float64(fw.conflicts)) },
		close:    fw.close,
	}, nil
}

// propagate CAS-puts the next version of k on A and waits until B's Watch
// delivers that (key, clock).
func (fw *fleetWorld) propagate(sc scope, k store.Key, overhead float64) (func() error, error) {
	fw.mu.Lock()
	fw.cur, fw.pushedAt = sc, time.Time{}
	fw.mu.Unlock()
	cur, ok, err := fw.a.Get(k)
	if err != nil {
		return nil, err
	}
	rec := store.VersionedRecord{Key: k, Clock: 1, Record: store.Record{
		Section: k.Section, Winner: "v1", WinnerOverhead: overhead, Rounds: 1,
		Policies: []store.PolicyRecord{{Name: "v0", TimesSampled: 1, MeanOverhead: 0.5}, {Name: "v1", TimesSampled: 1, TimesChosen: 1, MeanOverhead: overhead}},
	}}
	var prev uint64
	if ok {
		prev, rec.Clock = cur.Version, cur.Clock+1
	}
	var stored store.VersionedRecord
	sc.call("store.put", func() { stored, err = fw.a.Put(rec, prev) })
	if err != nil {
		if errors.Is(err, store.ErrConflict) {
			fw.conflicts++
		}
		return nil, err
	}
	timeout := time.NewTimer(deliveryTimeout)
	defer timeout.Stop()
	for {
		select {
		case got := <-fw.delivered:
			if got.Key != k || got.Clock != stored.Clock {
				continue // an earlier op's record, delivered again by a resync
			}
			return func() error {
				if got.Origin != "A" || !reflect.DeepEqual(got.Record, stored.Record) {
					return fmt.Errorf("delivered record differs from the written one")
				}
				return nil
			}, nil
		case <-timeout.C:
			return nil, fmt.Errorf("no delivery of %s clock %d within %v", k, stored.Clock, deliveryTimeout)
		}
	}
}

// wrapHub adds the hub-side spans: hub.push around the push handler, and
// hub.watch_wake from that handler's return to the first watch response
// written after it (the two never overlap, so self times still add up; a
// watcher that answers before the push handler returns leaves no span).
func (fw *fleetWorld) wrapHub(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := fw.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		switch r.URL.Path {
		case "/v1/push":
			fw.mu.Lock()
			sc := fw.cur
			fw.mu.Unlock()
			id := tr.begin("hub.push", sc.parent, sc.op)
			h.ServeHTTP(w, r)
			tr.end(id)
			fw.mu.Lock()
			fw.pushedAt = time.Now()
			fw.mu.Unlock()
		case "/v1/watch":
			h.ServeHTTP(w, r)
			fw.mu.Lock()
			sc, at := fw.cur, fw.pushedAt
			fw.pushedAt = time.Time{}
			fw.mu.Unlock()
			if !at.IsZero() {
				tr.add("hub.watch_wake", sc.parent, sc.op, at, time.Now())
			}
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// verify checks that A, B and the hub ended the window holding identical
// records.
func (fw *fleetWorld) verify() error {
	snapshot := func(b store.Backend) (map[store.Key]store.VersionedRecord, error) {
		keys, err := b.List()
		if err != nil {
			return nil, err
		}
		out := map[store.Key]store.VersionedRecord{}
		for _, k := range keys {
			rec, _, err := b.Get(k)
			if err != nil {
				return nil, err
			}
			rec.Version = 0 // backend-local, never replicated
			out[k] = rec
		}
		return out, nil
	}
	a, err := snapshot(fw.a)
	if err != nil {
		return err
	}
	b, err := snapshot(fw.b)
	if err != nil {
		return err
	}
	resp, err := http.Get(fw.hub.url + "/v1/state")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var state hub.StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		return err
	}
	h := map[store.Key]store.VersionedRecord{}
	for _, rec := range state.Records {
		rec.Version = 0
		h[rec.Key] = rec
	}
	if len(a) == 0 {
		return fmt.Errorf("replica A holds no records")
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("replicas A and B diverge (%d vs %d records)", len(a), len(b))
	}
	if !reflect.DeepEqual(a, h) {
		return fmt.Errorf("replica A and the hub diverge (%d vs %d records)", len(a), len(h))
	}
	return nil
}

func (fw *fleetWorld) close() {
	if fw.cancelWatch != nil {
		fw.cancelWatch()
	}
	if fw.b != nil {
		fw.b.Close()
	}
	if fw.a != nil {
		fw.a.Close()
	}
	if fw.hub != nil {
		fw.hub.stop()
	}
	os.RemoveAll(fw.dir)
}
