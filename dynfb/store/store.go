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
// A Record is what one section learned in one environment. Its Fingerprint
// (GOMAXPROCS, worker count, a hash of the variant set) keeps knowledge
// learned under one configuration from being applied to another: the
// winning lock discipline at 2 workers is routinely the loser at 16.
//
// Records live in a Backend: a versioned key → record map keyed by
// (tenant, section, environment hash) with compare-and-swap updates and
// change notification. Four backends are provided: MemStore (tests and
// single-process sharing), FileStore (one JSON file with atomic-rename
// writes), KVStore (an embedded write-ahead-logged KV directory), and
// ReplStore (hub-replicated with last-writer-wins resolution; see repl.go
// and the hub package). A section reads and writes its records through a
// TenantStore (dynfb.Config.Store), one tenant's view of a backend with
// exactly one read, the record for a section in its own environment, and
// one write. A store is a cache of learnable knowledge: corruption,
// truncation, schema drift or a record for another environment is a miss
// rather than an error, because the worst case is simply a cold start.
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

// PolicyRecord is one variant's accumulated history: the one shape of a
// variant's aggregates, stored in a Record, returned by
// dynfb.Section.VariantStats and served by dfserved as a snapshot's
// "variants".
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

// MemStore is an in-memory Backend, for tests and for sharing knowledge
// between sections of a single process.
type MemStore struct{ table }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	m := &MemStore{}
	m.init(nil)
	return m
}
