// Package store persists per-section dynamic feedback policy knowledge
// across process runs — and, replicated, across a fleet of processes.
//
// The paper's controller relearns the best policy from scratch at every
// process start. Its own §4.5 observation — sample the expected winner
// first, and skip the rest of the sampling phase while that winner stays
// acceptable — generalizes naturally across runs: if a previous process
// already sampled the section in the same environment, the new process can
// start from the recorded winner instead of a blank slate. A fleet takes
// the same idea one step further: a winner discovered by one replica is
// pushed to a hub and warm-starts every other replica with a matching
// environment, so the sampling cost is paid once fleet-wide.
//
// A Store maps section names to Records. Each Record carries an environment
// Fingerprint (GOMAXPROCS, worker count, a hash of the variant set) so that
// knowledge learned under one configuration is never applied to another:
// the winning lock discipline at 2 workers is routinely the loser at 16.
// Consumers (dynfb.Config.Store) treat a fingerprint mismatch as a cache
// miss and fall back to full sampling.
//
// The Store API is a thin view over a Backend: a versioned key → record
// map keyed by (tenant, section, environment hash) with compare-and-swap
// updates and change notification (see Backend). Four backends are
// provided: MemStore (tests and single-process sharing), FileStore (one
// JSON file with atomic-rename writes), KVStore (an embedded
// write-ahead-logged KV directory), and ReplStore (hub-replicated with
// last-writer-wins resolution; see repl.go and the hub package). A store
// is a cache of learnable knowledge: corruption, truncation, or schema
// drift loads as an empty store rather than an error, because the worst
// case is simply a cold start.
package store

import (
	"fmt"
	"hash/fnv"
)

// SchemaVersion is the on-disk schema of FileStore and of KVStore
// snapshots. Version 1 (the original section-keyed map) is migrated on
// load; any other mismatched version loads as empty (the knowledge is
// re-learnable; the format is not negotiated).
const SchemaVersion = 2

// Fingerprint identifies the environment a record was learned in. Records
// only warm-start sections whose fingerprint matches exactly.
type Fingerprint struct {
	// GoMaxProcs is runtime.GOMAXPROCS(0) at learning time.
	GoMaxProcs int `json:"gomaxprocs"`
	// Workers is the section's worker count.
	Workers int `json:"workers"`
	// VariantsHash is VariantsHash over the section's variant names, in
	// declaration order.
	VariantsHash string `json:"variants_hash"`
}

// Hash folds the fingerprint into a short stable string used as the
// environment component of a backend Key.
func (f Fingerprint) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%d\x00%s", f.GoMaxProcs, f.Workers, f.VariantsHash)
	return fmt.Sprintf("%016x", h.Sum64())
}

// VariantsHash hashes an ordered variant-name list into a short stable
// string for Fingerprint.VariantsHash.
func VariantsHash(names []string) string {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// PolicyRecord is one variant's accumulated history.
type PolicyRecord struct {
	Name         string  `json:"name"`
	TimesSampled int     `json:"times_sampled"`
	TimesChosen  int     `json:"times_chosen"`
	MeanOverhead float64 `json:"mean_overhead"`
	LastOverhead float64 `json:"last_overhead"`
}

// Record is everything a section has learned: who won the most recent
// production selection, at what overhead, and the per-variant aggregates.
type Record struct {
	// Section is the section name the record is keyed by.
	Section string `json:"section"`
	// Fingerprint is the environment the record was learned in.
	Fingerprint Fingerprint `json:"fingerprint"`
	// Winner is the variant name most recently chosen for production.
	Winner string `json:"winner"`
	// WinnerOverhead is the overhead the winner measured when chosen.
	WinnerOverhead float64 `json:"winner_overhead"`
	// Rounds is the number of completed sampling rounds behind the record.
	Rounds int `json:"rounds"`
	// Policies are the per-variant aggregates, in declaration order.
	Policies []PolicyRecord `json:"policies"`
	// UpdatedUnix is the wall-clock time of the last save, Unix seconds.
	UpdatedUnix int64 `json:"updated_unix"`
}

// cloneVersioned copies the one part of a record that is shared by
// assignment, so neither a caller nor a watcher aliases the stored slice.
func cloneVersioned(vr VersionedRecord) VersionedRecord {
	vr.Record.Policies = append([]PolicyRecord(nil), vr.Record.Policies...)
	return vr
}

// Store persists section records. Implementations must be safe for
// concurrent use: a server saves from many sections at once.
type Store interface {
	// Load returns the record for section and whether one exists. When
	// records exist for several environments, the newest wins; callers
	// that know their environment should use LoadFor (all stores in this
	// package implement it) via the EnvLoader interface.
	Load(section string) (Record, bool, error)
	// Save upserts rec, keyed by rec.Section (and, on backend-based
	// stores, rec.Fingerprint).
	Save(rec Record) error
	// Sections returns the stored section names, sorted.
	Sections() ([]string, error)
}

// EnvLoader is the environment-exact lookup every store in this package
// provides: the record for one section learned in exactly the given
// environment. Consumers type-assert their Store to it and fall back to
// Load when the assertion fails.
type EnvLoader interface {
	LoadFor(section string, fp Fingerprint) (Record, bool, error)
}

// MemStore is an in-memory store, for tests and for sharing knowledge
// between sections of a single process. It implements both Store and
// Backend.
type MemStore struct{ table }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	m := &MemStore{}
	m.init(nil)
	return m
}
