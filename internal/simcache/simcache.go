// Package simcache is a content-addressed cache of simulation outcomes.
//
// Every quantity the reproduction measures is a deterministic function of
// (compiled program, parameters, machine cost model, dynamic-feedback
// configuration): the same cell simulated twice produces bit-identical
// results. The cache exploits that determinism to make re-simulation
// unnecessary: results are addressed by interp.CacheKey — a SHA-256 over
// the program fingerprint and every option that can influence the outcome
// — so a hit is guaranteed to be the exact record a fresh simulation
// would produce (and `dfbench -cache-verify` re-simulates hits and
// byte-compares to prove it).
//
// Two tiers:
//
//   - An in-memory LRU holds decoded *interp.Result records for the hot
//     working set (a full dfbench suite is a few hundred cells).
//   - An optional on-disk tier persists one file per key: a checksummed
//     binary entry (magic, schema, key, the Result, CRC-32C; codec.go),
//     written through a temporary sibling and an atomic rename (the
//     dynfb/store discipline), so concurrent writers and crashes mid-write
//     leave either the old or the new file, never a torn one. Corrupt,
//     truncated, or schema-skewed files — every entry a schema 1 (JSON)
//     cache left behind included — are counted and treated as misses, and
//     the next Put overwrites them: cached knowledge is always
//     re-learnable by simulating, so an old directory re-simulates once.
//
// The entry form is private to the disk tier. EncodeResult (JSON) remains
// the canonical form results are compared in.
//
// Results returned by Get are shared; callers must treat them as
// immutable (the bench and serve integrations only read them, exactly as
// they already share results through single-flight memoization).
package simcache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
)

// SchemaVersion is the on-disk entry schema. Bump it when the entry form
// or the Result record shape changes; old files then read as misses.
// 1 was a JSON envelope, 2 the binary form of codec.go with a sampled-run
// record after the race reports, 3 is 2 without that record.
const SchemaVersion = 3

// DefaultMemEntries is the in-memory tier's default capacity.
const DefaultMemEntries = 1024

// Config parameterizes a Cache.
type Config struct {
	// Dir is the on-disk tier's directory; "" disables the disk tier.
	// The directory is created if missing.
	Dir string
	// MemEntries is the in-memory LRU capacity. 0 means
	// DefaultMemEntries; negative disables the memory tier.
	MemEntries int
}

// Stats counts cache traffic. Hits = MemHits + DiskHits.
type Stats struct {
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	Puts     int64 `json:"puts"`
	// Errors counts tolerated disk-tier failures (corrupt or unreadable
	// entries, unwritable files); each also reads as a miss or a dropped
	// put.
	Errors int64 `json:"errors"`
}

// Hits returns total hits across tiers.
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits }

// Cache is a two-tier content-addressed result cache. It is safe for
// concurrent use.
type Cache struct {
	dir    string
	memCap int

	mu    sync.Mutex
	byKey map[string]*list.Element
	order *list.List // front = most recently used
	stats Stats
}

type memEntry struct {
	key string
	res *interp.Result
}

// New creates a cache. With a Dir it ensures the directory exists.
func New(cfg Config) (*Cache, error) {
	memCap := cfg.MemEntries
	if memCap == 0 {
		memCap = DefaultMemEntries
	}
	if memCap < 0 {
		memCap = 0
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("simcache: %w", err)
		}
	}
	return &Cache{
		dir:    cfg.Dir,
		memCap: memCap,
		byKey:  map[string]*list.Element{},
		order:  list.New(),
	}, nil
}

// Dir returns the disk tier directory ("" when disabled).
func (c *Cache) Dir() string { return c.dir }

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached result for key, consulting the memory tier and
// then the disk tier (promoting disk hits into memory). The returned
// result is shared: treat it as immutable.
func (c *Cache) Get(key string) (*interp.Result, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		res := el.Value.(*memEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()

	if c.dir == "" {
		c.note(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	data, err := os.ReadFile(c.entryPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		c.note(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	var res *interp.Result
	if err == nil {
		res, err = decodeEntry(data, key)
	}
	if err != nil {
		// An unreadable or damaged entry is a miss, not a failure: the
		// result is re-learnable by simulating, and the next Put
		// overwrites it.
		c.note(func(s *Stats) { s.Errors++; s.Misses++ })
		return nil, false
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.insertLocked(key, res)
	c.mu.Unlock()
	return res, true
}

// Put stores a result under key in both tiers. Disk-tier failures are
// tolerated and counted; the memory tier always succeeds.
func (c *Cache) Put(key string, res *interp.Result) {
	c.mu.Lock()
	c.stats.Puts++
	c.insertLocked(key, res)
	c.mu.Unlock()

	if c.dir == "" {
		return
	}
	if err := writeAtomic(c.entryPath(key), encodeEntry(key, res)); err != nil {
		c.note(func(s *Stats) { s.Errors++ })
	}
}

func (c *Cache) note(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// insertLocked adds (or refreshes) a memory-tier entry and evicts LRU
// entries beyond capacity.
func (c *Cache) insertLocked(key string, res *interp.Result) {
	if c.memCap == 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*memEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&memEntry{key: key, res: res})
	for len(c.byKey) > c.memCap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*memEntry).key)
	}
}

// entryPath keeps the ".json" suffix schema 1 gave it, though the entry is
// no longer JSON: benchmark/probes.go stats that name for
// simcache.entry_bytes, and renaming it belongs to the PR that may edit
// benchmark/ (ROADMAP "Smaller cuts").
func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// EncodeResult renders a result in its canonical byte form: JSON, whatever
// form the disk tier stores. The verify mode byte-compares cached and
// freshly simulated results through this encoding, which is lossless for
// every field the result carries (int64 counters and virtual times, float64
// overheads).
func EncodeResult(res *interp.Result) ([]byte, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	return data, nil
}

// tmpSeq numbers this process's temporary files.
var tmpSeq atomic.Uint64

// writeAtomic writes data to path through a temporary sibling and an atomic
// rename, so readers never observe a torn entry. The sibling's name is
// unique to this process and this call (pid and a sequence number), so one
// exclusive create opens it with its final mode; should a crashed process
// with the same pid have left that very name behind, this put fails and is
// counted like any other disk error.
func writeAtomic(path string, data []byte) error {
	tmpName := path + ".tmp" + strconv.Itoa(os.Getpid()) + "-" + strconv.FormatUint(tmpSeq.Add(1), 10)
	tmp, err := os.OpenFile(tmpName, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
