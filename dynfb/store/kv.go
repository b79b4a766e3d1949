package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// KVStore is the embedded key-value backend: a directory holding a JSON
// snapshot plus a write-ahead log of CRC-framed puts. A Put appends one
// frame to the log and fsyncs it before returning, so a completed Put
// survives a crash without rewriting the whole store (FileStore's cost
// model); the log is folded into a fresh snapshot — written through the
// same fsynced atomic-rename path as FileStore — once it grows past a
// threshold. A torn or corrupt log tail (the partial frame a crash
// mid-append leaves behind) is detected by its length/checksum and
// truncated away on open: everything before it is kept, and the damaged
// suffix is never visible to readers.
type KVStore struct {
	table
	dir string

	// The fields below are guarded by table.mu.
	wal       walFile
	walBytes  int64 // length of the log up to its last complete frame
	walFrames int
	closed    bool
	// failed is set when a torn append could not be cut out of the log:
	// frames written behind it would be lost to the next replay, so every
	// later Put is refused with it.
	failed error
	// loadWarning describes tolerated damage found on open (corrupt
	// snapshot, truncated log tail).
	loadWarning string
}

// walFile is what KVStore does to its open log (an *os.File in append
// mode); tests substitute one that fails mid-frame.
type walFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

const (
	kvSnapshotName = "snapshot.json"
	kvWALName      = "wal.log"
	// kvCompactBytes and kvCompactFrames bound the write-ahead log; the
	// first Put past either threshold triggers compaction.
	kvCompactBytes  = 1 << 20
	kvCompactFrames = 4096
	// kvFrameHeader is the per-frame header: payload length and CRC-32.
	kvFrameHeader = 8
	// kvMaxFrame bounds a single frame; longer length prefixes are
	// treated as corruption rather than allocated.
	kvMaxFrame = 16 << 20
)

// OpenKV opens (or initializes) the embedded KV store rooted at dir,
// creating the directory if needed. Damage is tolerated the same way
// FileStore tolerates it: a corrupt snapshot loads as empty, a torn log
// tail is truncated, and the condition is reported by LoadWarning rather
// than failing the open.
func OpenKV(dir string) (*KVStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty KV directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &KVStore{dir: dir}
	s.init(s.commitLocked)

	snapPath := filepath.Join(dir, kvSnapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		s.recs, s.loadWarning = decodeRecords(data, snapPath)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}

	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, kvWALName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	return s, nil
}

// replayWAL folds the write-ahead log into the in-memory state, stopping
// at — and truncating — the first torn or corrupt frame so a crash
// mid-append never surfaces partial data.
func (s *KVStore) replayWAL() error {
	path := filepath.Join(s.dir, kvWALName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	header := make([]byte, kvFrameHeader)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			if err == io.EOF {
				return nil // clean end of log
			}
			// A short header is the torn tail of a crashed append.
			return s.truncateWAL(path, "short frame header")
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > kvMaxFrame {
			return s.truncateWAL(path, fmt.Sprintf("implausible frame length %d", length))
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return s.truncateWAL(path, "torn frame payload")
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return s.truncateWAL(path, "frame checksum mismatch")
		}
		var vr VersionedRecord
		if err := json.Unmarshal(payload, &vr); err != nil || vr.Key.Validate() != nil {
			return s.truncateWAL(path, "undecodable frame")
		}
		vr.Record.Section = vr.Key.Section
		s.recs[vr.Key] = vr
		s.walBytes += int64(kvFrameHeader) + int64(length)
		s.walFrames++
	}
}

// truncateWAL cuts the log back to the last complete frame.
func (s *KVStore) truncateWAL(path, why string) error {
	if err := os.Truncate(path, s.walBytes); err != nil {
		return fmt.Errorf("store: truncating damaged WAL: %w", err)
	}
	s.loadWarning = fmt.Sprintf("damaged WAL tail in %s truncated at byte %d: %s", path, s.walBytes, why)
	return nil
}

// Dir returns the backing directory.
func (s *KVStore) Dir() string { return s.dir }

// LoadWarning reports tolerated damage found on open ("" when the store
// loaded cleanly).
func (s *KVStore) LoadWarning() string { return s.loadWarning }

// commitLocked is the table's commit step: one fsynced frame appended to
// the write-ahead log, plus a compaction when the log has grown past its
// threshold.
func (s *KVStore) commitLocked(stored VersionedRecord) error {
	if s.closed {
		return fmt.Errorf("store: put on closed KV store")
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.appendLocked(stored); err != nil {
		return err
	}
	if s.walBytes > kvCompactBytes || s.walFrames > kvCompactFrames {
		// Compaction failure is not a Put failure: the WAL still holds
		// the write; the next Put retries the fold.
		_ = s.compactLocked()
	}
	return nil
}

// appendLocked writes one framed record to the log and fsyncs it.
func (s *KVStore) appendLocked(vr VersionedRecord) error {
	payload, err := json.Marshal(vr)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	frame := make([]byte, kvFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[kvFrameHeader:], payload)
	if _, err = s.wal.Write(frame); err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		// Part of the frame may have reached the file. Replay stops at a
		// torn frame, so it must not stay in front of later appends.
		if terr := s.wal.Truncate(s.walBytes); terr != nil {
			s.failed = fmt.Errorf("store: KV log has a torn frame at byte %d that could not be removed: %w", s.walBytes, terr)
		}
		return fmt.Errorf("store: %w", err)
	}
	s.walBytes += int64(len(frame))
	s.walFrames++
	return nil
}

// compactLocked folds the current state into the snapshot and resets the
// log. Ordering matters for crash safety: the snapshot (which embeds
// every logged write) is made durable before the log is truncated, so no
// window exists in which a write lives in neither file.
func (s *KVStore) compactLocked() error {
	data, err := encodeRecords(s.recs)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, kvSnapshotName), data); err != nil {
		return err
	}
	// The log is open in append mode, so the next frame lands at the new
	// end without a seek.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walBytes = 0
	s.walFrames = 0
	return nil
}

// Compact folds the write-ahead log into the snapshot immediately.
func (s *KVStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: compact on closed KV store")
	}
	return s.compactLocked()
}

// Close compacts and closes the store.
func (s *KVStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.compactLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
