package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// fileSchema is the on-disk envelope of a FileStore (and of a KVStore
// snapshot): the schema version and the keyed, versioned records.
type fileSchema struct {
	Schema  int               `json:"schema"`
	Records []VersionedRecord `json:"records"`
}

// fileSchemaV1 is the original envelope: a section-keyed map of records
// from before keys carried tenants and environments. It is migrated on
// load so a pre-fleet policy file keeps its knowledge.
type fileSchemaV1 struct {
	Schema  int               `json:"schema"`
	Records map[string]Record `json:"records"`
}

// FileStore is a store backed by a single JSON file. Every Put rewrites
// the file through a temporary sibling and an atomic rename, so readers
// (and a crash mid-write) always observe either the old or the new
// contents, never a torn file; the temporary file and the directory are
// both fsynced so the rename is durable once Put returns. It implements
// both Store and Backend.
type FileStore struct {
	table
	path string
	// loadWarning describes a tolerated load failure (corrupt or
	// version-skewed file), for callers that want to report it.
	loadWarning string
}

// OpenFile opens (or initializes) the store file at path. A missing file
// yields an empty store. A truncated, corrupt, or schema-mismatched file
// also yields an empty store — the knowledge is re-learnable, and failing
// to start over a damaged cache would be worse than a cold start; the
// tolerated condition is reported by LoadWarning. A schema-1 file (from
// before the fleet rework) is migrated in place of being discarded. Only
// environmental errors (e.g. an unreadable file that exists) are
// returned.
func OpenFile(path string) (*FileStore, error) {
	if path == "" {
		return nil, fmt.Errorf("store: empty file path")
	}
	f := &FileStore{path: path}
	f.init(f.flushLocked)
	// Sweep temporaries a crashed write may have left beside the store;
	// they were never renamed, so their contents are possibly torn and
	// must never be read as a store.
	dir, base := filepath.Dir(path), filepath.Base(path)
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if isTempName(base, e.Name()) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return f, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	f.recs, f.loadWarning = decodeRecords(data, path)
	return f, nil
}

// decodeRecords parses a store file (either schema), tolerating damage:
// the second result is a warning describing why the result is empty (""
// when the file decoded cleanly).
func decodeRecords(data []byte, path string) (map[Key]VersionedRecord, string) {
	recs := map[Key]VersionedRecord{}
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return recs, fmt.Sprintf("corrupt store file %s ignored: %v", path, err)
	}
	switch probe.Schema {
	case 1:
		var sc fileSchemaV1
		if err := json.Unmarshal(data, &sc); err != nil {
			return recs, fmt.Sprintf("corrupt store file %s ignored: %v", path, err)
		}
		for name, rec := range sc.Records {
			rec.Section = name
			k := Key{Section: name, Env: rec.Fingerprint.Hash()}
			recs[k] = VersionedRecord{Key: k, Version: 1, Clock: 1, Record: rec}
		}
		return recs, ""
	case SchemaVersion:
		var sc fileSchema
		if err := json.Unmarshal(data, &sc); err != nil {
			return recs, fmt.Sprintf("corrupt store file %s ignored: %v", path, err)
		}
		for _, vr := range sc.Records {
			if vr.Key.Validate() != nil {
				continue
			}
			vr.Record.Section = vr.Key.Section
			recs[vr.Key] = vr
		}
		return recs, ""
	default:
		return recs, fmt.Sprintf("store file %s has schema %d, want %d; starting empty",
			path, probe.Schema, SchemaVersion)
	}
}

// encodeRecords renders the records in the current schema, sorted by key
// so the output is deterministic (byte-identical files for identical
// contents).
func encodeRecords(recs map[Key]VersionedRecord) ([]byte, error) {
	sc := fileSchema{Schema: SchemaVersion, Records: make([]VersionedRecord, 0, len(recs))}
	for _, vr := range recs {
		sc.Records = append(sc.Records, vr)
	}
	sort.Slice(sc.Records, func(i, j int) bool { return sc.Records[i].Key.less(sc.Records[j].Key) })
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// writeFileAtomic writes data to path through a fsynced temporary sibling
// and an atomic rename, then fsyncs the directory so the rename itself
// survives a crash. Readers never observe a torn file: the temporary name
// carries a ".tmp" suffix readers ignore, and the final name only ever
// points at complete contents.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	// The data must be on stable storage before the rename publishes the
	// name, or a crash can leave a fully renamed but empty/torn file.
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	// And the rename must reach the directory, or a crash forgets it.
	return syncDir(dir)
}

// syncDir fsyncs a directory; on platforms where directories cannot be
// fsynced the error is ignored (the rename is still atomic, just not
// durably ordered).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return fmt.Errorf("store: fsync %s: %w", dir, err)
	}
	return nil
}

// isTempName reports whether a directory entry is one of our in-flight
// temporary files (never to be read as a store).
func isTempName(base, name string) bool {
	return strings.HasPrefix(name, base+".tmp")
}

// Path returns the backing file path.
func (f *FileStore) Path() string { return f.path }

// LoadWarning reports a tolerated load failure ("" when the file loaded
// cleanly or did not exist).
func (f *FileStore) LoadWarning() string { return f.loadWarning }

// flushLocked is the table's commit step: the whole store is rewritten to
// a temporary file in the same directory and renamed over the target,
// fsyncing both the data and the directory entry, so the visible file is
// always complete and a completed Put survives a crash.
func (f *FileStore) flushLocked(VersionedRecord) error {
	data, err := encodeRecords(f.recs)
	if err != nil {
		return err
	}
	return writeFileAtomic(f.path, data)
}
