package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Key addresses one policy record in a Backend. Records are keyed by the
// tenant (workload namespace), the section name, and the environment
// fingerprint hash, so that knowledge learned by one workload in one
// environment is never applied to another: a fleet serving two unlike
// tenants keeps their records fully disjoint even when section names
// collide, and the same tenant's records stay per-environment.
type Key struct {
	// Tenant is the workload namespace ("" is the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Section is the adaptive section name.
	Section string `json:"section"`
	// Env is Fingerprint.Hash() of the environment the record was
	// learned in.
	Env string `json:"env"`
}

// Validate rejects keys that cannot address a record.
func (k Key) Validate() error {
	if k.Section == "" {
		return fmt.Errorf("store: key has no section name")
	}
	if k.Env == "" {
		return fmt.Errorf("store: key has no environment hash")
	}
	return nil
}

// String renders the key as tenant/section/env for logs and reports.
func (k Key) String() string {
	t := k.Tenant
	if t == "" {
		t = "default"
	}
	return t + "/" + k.Section + "/" + k.Env
}

// less orders keys lexicographically by (tenant, section, env).
func (k Key) less(o Key) bool {
	if k.Tenant != o.Tenant {
		return k.Tenant < o.Tenant
	}
	if k.Section != o.Section {
		return k.Section < o.Section
	}
	return k.Env < o.Env
}

// VersionedRecord is a Record together with the metadata a Backend needs
// for compare-and-swap updates and for last-writer-wins replication.
type VersionedRecord struct {
	// Key addresses the record.
	Key Key `json:"key"`
	// Version is the backend-local CAS version, assigned by Put. It is
	// meaningful only within the backend that assigned it; replication
	// never transfers it.
	Version uint64 `json:"version"`
	// Clock is a Lamport-style logical clock used for last-writer-wins
	// resolution across replicas: writers stamp Clock strictly greater
	// than the clock of the record they read.
	Clock uint64 `json:"clock"`
	// Origin identifies the replica that produced this write; it breaks
	// Clock ties deterministically.
	Origin string `json:"origin,omitempty"`
	// Record is the policy knowledge itself.
	Record Record `json:"record"`
}

// Newer reports whether a should replace b under last-writer-wins
// resolution: higher Clock wins, then later UpdatedUnix, then the greater
// Origin string. The order is total and deterministic, so every replica
// resolves a conflict identically regardless of arrival order.
func Newer(a, b VersionedRecord) bool {
	if a.Clock != b.Clock {
		return a.Clock > b.Clock
	}
	if a.Record.UpdatedUnix != b.Record.UpdatedUnix {
		return a.Record.UpdatedUnix > b.Record.UpdatedUnix
	}
	return a.Origin > b.Origin
}

// ErrConflict is returned by Backend.Put when the caller's expected
// version no longer matches the stored record: another writer got there
// first. The caller re-reads and retries (or merges).
var ErrConflict = errors.New("store: compare-and-swap conflict")

// Backend is the storage engine behind the Store API: a versioned key →
// record map with optimistic concurrency and change notification. Four
// implementations are provided: MemStore (in-process), FileStore (one
// JSON file, atomic renames), KVStore (write-ahead-logged embedded KV) —
// one record table with three durability steps — and ReplStore
// (hub-replicated, over any of them). All must be safe for concurrent use.
type Backend interface {
	// Get returns the record at k and whether one exists.
	Get(k Key) (VersionedRecord, bool, error)
	// Put stores rec at rec.Key if the stored version still equals prev
	// (0 means "no record yet"). On success it returns the stored record
	// with its newly assigned Version; on a version mismatch it returns
	// ErrConflict.
	Put(rec VersionedRecord, prev uint64) (VersionedRecord, error)
	// List returns every key, sorted by (tenant, section, env).
	List() ([]Key, error)
	// Watch registers fn to be called once for every applied Put until
	// cancel is called. Callbacks run synchronously on the writer's
	// goroutine after the write is applied; they must be fast and must
	// not block. Callback order across concurrent writers is unspecified.
	Watch(fn func(VersionedRecord)) (cancel func())
	// Close releases the backend's resources. Get/Put after Close may
	// fail.
	Close() error
}

// watchers implements Watch for the backends: a registry of callbacks
// notified after each applied put. Notification happens outside the
// backend's record lock so callbacks may read the backend freely.
type watchers struct {
	mu   sync.Mutex
	subs map[int]func(VersionedRecord)
	next int
}

func (w *watchers) add(fn func(VersionedRecord)) (cancel func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.subs == nil {
		w.subs = map[int]func(VersionedRecord){}
	}
	id := w.next
	w.next++
	w.subs[id] = fn
	return func() {
		w.mu.Lock()
		delete(w.subs, id)
		w.mu.Unlock()
	}
}

func (w *watchers) notify(rec VersionedRecord) {
	w.mu.Lock()
	ids := make([]int, 0, len(w.subs))
	for id := range w.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(VersionedRecord), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, w.subs[id])
	}
	w.mu.Unlock()
	// Subscription order, so multi-watcher interleavings replay the same
	// way every run.
	for _, fn := range fns {
		fn(rec)
	}
}

// table is the versioned record map the three local backends embed: the
// one Get, compare-and-swap Put, List and Watch, plus the default tenant's
// Store view. A backend differs only in commit, the step that makes an
// applied put durable.
type table struct {
	tenantStore

	mu   sync.Mutex
	recs map[Key]VersionedRecord
	// commit, when non-nil, runs under mu with the put already applied to
	// recs; on an error Put restores the map, so memory and disk agree.
	commit func(stored VersionedRecord) error
	watch  watchers
}

// init readies an empty table and points its Store view at itself.
func (t *table) init(commit func(VersionedRecord) error) {
	t.tenantStore.b = t
	t.recs = map[Key]VersionedRecord{}
	t.commit = commit
}

// Get implements Backend.
func (t *table) Get(k Key) (VersionedRecord, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vr, ok := t.recs[k]
	if !ok {
		return VersionedRecord{}, false, nil
	}
	return cloneVersioned(vr), true, nil
}

// Put implements Backend. The record is stored with its Record.Section
// filled in from the key, the form every reader and every reopen sees.
func (t *table) Put(rec VersionedRecord, prev uint64) (VersionedRecord, error) {
	if err := rec.Key.Validate(); err != nil {
		return VersionedRecord{}, err
	}
	if rec.Record.Section == "" {
		rec.Record.Section = rec.Key.Section
	}
	if rec.Record.Section != rec.Key.Section {
		return VersionedRecord{}, fmt.Errorf("store: record section %q does not match key section %q",
			rec.Record.Section, rec.Key.Section)
	}
	t.mu.Lock()
	cur, ok := t.recs[rec.Key] // a missing record reads as version 0
	if cur.Version != prev {
		t.mu.Unlock()
		return VersionedRecord{}, fmt.Errorf("%w: key %s at version %d, caller expected %d",
			ErrConflict, rec.Key, cur.Version, prev)
	}
	stored := cloneVersioned(rec)
	stored.Version = prev + 1
	t.recs[rec.Key] = stored
	if t.commit != nil {
		if err := t.commit(stored); err != nil {
			if ok {
				t.recs[rec.Key] = cur
			} else {
				delete(t.recs, rec.Key)
			}
			t.mu.Unlock()
			return VersionedRecord{}, err
		}
	}
	t.mu.Unlock()
	t.watch.notify(cloneVersioned(stored))
	return cloneVersioned(stored), nil
}

// List implements Backend.
func (t *table) List() ([]Key, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]Key, 0, len(t.recs))
	for k := range t.recs {
		keys = append(keys, k)
	}
	SortKeys(keys)
	return keys, nil
}

// Watch implements Backend.
func (t *table) Watch(fn func(VersionedRecord)) (cancel func()) {
	return t.watch.add(fn)
}

// Close implements Backend: a no-op unless the backend holds a resource.
func (t *table) Close() error { return nil }

// MergeLWW applies rec into b if it wins last-writer-wins resolution
// against the record already stored at its key, retrying CAS conflicts.
// It reports whether rec was applied. Replication uses it to fold remote
// updates into a local backend without ever regressing a newer local
// write.
func MergeLWW(b Backend, rec VersionedRecord) (bool, error) {
	for {
		cur, ok, err := b.Get(rec.Key)
		if err != nil {
			return false, err
		}
		if ok && !Newer(rec, cur) {
			return false, nil
		}
		var prev uint64
		if ok {
			prev = cur.Version
		}
		if _, err := b.Put(rec, prev); err != nil {
			if errors.Is(err, ErrConflict) {
				continue
			}
			return false, err
		}
		return true, nil
	}
}

// NewTenantStore binds a Backend to one tenant namespace and exposes it
// through the Store API dynfb consumes. Save stamps the record's key from
// its section name and fingerprint, advances the Lamport clock past the
// record it replaces, and retries CAS conflicts; concurrent savers
// therefore never lose each other's sections, and the last writer of the
// same key wins.
func NewTenantStore(b Backend, tenant string) Store {
	return &tenantStore{b: b, tenant: tenant}
}

type tenantStore struct {
	b      Backend
	tenant string
}

// LoadFor implements EnvLoader: the exact lookup — one tenant, one section,
// one environment.
func (s *tenantStore) LoadFor(section string, fp Fingerprint) (Record, bool, error) {
	vr, ok, err := s.b.Get(Key{Tenant: s.tenant, Section: section, Env: fp.Hash()})
	if err != nil || !ok {
		return Record{}, false, err
	}
	return vr.Record, true, nil
}

// Load implements Store: the newest record for the section across
// environments (callers that know their fingerprint use LoadFor; Load keeps
// the original single-record-per-section Store semantics working).
func (s *tenantStore) Load(section string) (Record, bool, error) {
	keys, err := s.b.List()
	if err != nil {
		return Record{}, false, err
	}
	var best VersionedRecord
	found := false
	for _, k := range keys {
		if k.Tenant != s.tenant || k.Section != section {
			continue
		}
		vr, ok, err := s.b.Get(k)
		if err != nil {
			return Record{}, false, err
		}
		if !ok {
			continue
		}
		if !found || Newer(vr, best) {
			best = vr
			found = true
		}
	}
	if !found {
		return Record{}, false, nil
	}
	return best.Record, true, nil
}

// Save implements Store.
func (s *tenantStore) Save(rec Record) error {
	if rec.Section == "" {
		return fmt.Errorf("store: record has no section name")
	}
	k := Key{Tenant: s.tenant, Section: rec.Section, Env: rec.Fingerprint.Hash()}
	for {
		cur, ok, err := s.b.Get(k)
		if err != nil {
			return err
		}
		next := VersionedRecord{Key: k, Record: rec, Clock: 1}
		var prev uint64
		if ok {
			prev = cur.Version
			next.Clock = cur.Clock + 1
		}
		if _, err := s.b.Put(next, prev); err != nil {
			if errors.Is(err, ErrConflict) {
				continue
			}
			return err
		}
		return nil
	}
}

// Sections implements Store.
func (s *tenantStore) Sections() ([]string, error) {
	keys, err := s.b.List()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, k := range keys {
		if k.Tenant != s.tenant || seen[k.Section] {
			continue
		}
		seen[k.Section] = true
		out = append(out, k.Section)
	}
	sort.Strings(out)
	return out, nil
}

// SortKeys sorts keys by (tenant, section, env), the order List returns.
func SortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
}
