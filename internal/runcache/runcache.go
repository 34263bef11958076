// Package runcache persists resolved simulation results across process
// invocations. It is the L2 behind the experiment engine's in-memory
// memo cache: once a spec has been simulated by any bpsim invocation,
// every later invocation replays the stored result instead of
// re-simulating it.
//
// The store is an append-only log, deliberately simple and crash-safe:
//
//   - Entries live in a per-schema subdirectory. Opening a directory
//     with a new schema version starts empty — stale entries are
//     invalidated by construction and can never alias a current key.
//   - Each Store appends to one segment file of its own, created by its
//     first write. Every Put appends one checksummed record with one
//     write call (the format is in segment.go). Processes sharing a
//     directory therefore never interleave writes, and every writer of
//     a key writes identical deterministic bytes, so a key stored in
//     two segments holds the same value in both.
//   - Open reads each segment in one sequential pass and loads every
//     complete record whose CRC-32 matches; values stay opaque bytes.
//     Get and Put are memory-speed afterward (Put additionally appends
//     to disk). The checksum catches silent corruption — a flipped bit
//     inside a number would otherwise replay a wrong result forever —
//     and a torn record costs only itself.
//   - A writer holds an advisory lock on its segment for the store's
//     lifetime, which the kernel drops when the process exits. Damaged
//     records are never loaded and count in Stats.Quarantined. When a
//     damaged segment's writer has exited, Open renames the segment
//     with a ".corrupt" suffix (deleting nothing) and re-appends its
//     good records to its own segment, so the next Open neither counts
//     the damage again nor loses the good records. A segment whose lock
//     is held belongs to a live writer and is never renamed.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Stats counts store traffic since Open.
type Stats struct {
	Loaded      int // entries read at Open
	Quarantined int // damaged records found at Open (never loaded)
	Hits        int // Get calls that found an entry
	Misses      int // Get calls that did not
	Puts        int // entries written
	PutErrors   int // writes that failed (entry kept in memory only)
}

// Store is an on-disk map from key hash to an opaque JSON value, with an
// in-memory mirror loaded at Open. Safe for concurrent use within a
// process; safe to share a directory across processes.
type Store struct {
	dir    string // per-schema subdirectory actually holding segments
	schema string
	header []byte // the segment header line naming schema

	// fault, when set, intercepts record bytes on their way to disk —
	// the chaos layer's corruption/ENOSPC seam. Never touches the
	// in-memory copy. Set once before concurrent use (SetFileFault).
	fault FileFault

	// segOnce creates seg, this store's own segment, at the first write;
	// segErr keeps a failed creation, after which every Put stays in
	// memory only.
	segOnce sync.Once
	seg     *os.File
	segErr  error

	mu      sync.Mutex // guards entries, stats and appends to seg
	entries map[string]json.RawMessage
	stats   Stats
}

// FileFault intercepts a record's framed bytes just before they are
// appended to the segment. It may return altered bytes (simulated
// corruption: the checksum must catch it at the next Open) or an error
// (simulated full disk: counted as a PutError, entry kept in memory).
// chaos.CacheFaults implements it; production stores never set one.
type FileFault interface {
	WriteEntry(key string, raw []byte) ([]byte, error)
}

// entryFormat versions the on-disk format. It is folded into schemaID,
// so bumping it supersedes every directory written under the old
// format — Open starts them empty and `-cache-gc` sweeps them, exactly
// like a schema change. Format 2 added the CRC field; format 3 replaced
// one JSON file per entry with segment logs.
const entryFormat = 3

// DefaultDir returns the conventional cache directory shared by the
// CLIs — ~/.cache/xorbp via the platform cache dir — or "" when no home
// is resolvable, which callers treat as cache-disabled.
func DefaultDir() string {
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "xorbp")
}

// Key derives the store key for a payload under a schema: the hex SHA-256
// of both. Including the schema means entries from different schema
// versions can never collide on a name.
func Key(schema string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(schema))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// schemaID is the directory-name-safe digest of a schema string (the
// full string can be hundreds of characters of type signature). The
// on-disk format version is folded in, so a format change invalidates
// old directories exactly like a schema change: Open never sees
// old-format files, and GC treats their directories as superseded.
func schemaID(schema string) string {
	sum := sha256.Sum256([]byte("fmt" + strconv.Itoa(entryFormat) + "\x00" + schema))
	return "v-" + hex.EncodeToString(sum[:8])
}

// Open loads (creating if necessary) the store for one schema version
// under dir. Entries written under other schema versions are left
// untouched in their own subdirectories.
func Open(dir, schema string) (*Store, error) {
	sub := filepath.Join(dir, schemaID(schema))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	s := &Store{
		dir:     sub,
		schema:  schema,
		header:  segmentHeader(schema),
		entries: make(map[string]json.RawMessage),
	}
	names, err := os.ReadDir(sub)
	if err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	for _, de := range names {
		if !de.IsDir() && isSegment(de.Name()) {
			s.load(filepath.Join(sub, de.Name()))
		}
	}
	s.stats.Loaded = len(s.entries)
	return s, nil
}

// load reads one segment, loads its good records and counts its damage.
// A damaged segment whose writer has exited is quarantined: renamed
// aside, its good records re-appended to this store's own segment.
func (s *Store) load(path string) {
	f, err := os.Open(path)
	if err != nil {
		return // renamed or collected under a concurrent process
	}
	defer f.Close()
	dead := tryLock(f) // held until Close
	data, err := readSegment(f)
	if err != nil {
		return // unreadable is not evidence of corruption
	}
	damaged := scanSegment(data, s.header, func(_, key, value []byte) {
		s.entries[string(key)] = value[:len(value):len(value)]
	})
	s.stats.Quarantined += damaged
	if !dead || damaged == 0 || os.Rename(path, path+".corrupt") != nil {
		return
	}
	var salvage []byte
	scanSegment(data, s.header, func(rec, _, _ []byte) {
		salvage = append(append(append(salvage, '\n'), rec...), '\n')
	})
	if len(salvage) == 0 {
		return
	}
	if err = s.ensureSegment(); err == nil {
		_, err = s.seg.Write(salvage)
	}
	if err != nil {
		s.stats.PutErrors++ // the good records stay in memory only
	}
}

// readSegment reads a segment up to the size it had when the read began: a
// live writer may append meanwhile, and the records it adds are newer
// than this Open.
func readSegment(f *os.File) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, info.Size())
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF {
		err = nil
	}
	return data[:n], err
}

// ensureSegment creates this store's segment on first use.
func (s *Store) ensureSegment() error {
	s.segOnce.Do(func() { s.seg, s.segErr = createSegment(s.dir, s.header) })
	return s.segErr
}

// Contains reports whether key is present, without touching the
// hit/miss counters — for planners probing what a run will replay, as
// distinct from the engine actually consuming entries.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Get returns the stored value for key, if present.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return v, ok
}

// Put stores value under key, appending one record to this store's
// segment. The value must be JSON; it is written compacted. The entry
// is kept in memory even if the disk write fails — the caller already
// paid for the result — and the failure is reported and counted.
func (s *Store) Put(key string, value []byte) error {
	rec, err := appendRecord(make([]byte, 0, len(key)+len(value)+16), key, value)
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if s.fault != nil {
		rec, err = s.fault.WriteEntry(key, rec)
	}
	if err == nil {
		err = s.ensureSegment()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = json.RawMessage(value)
	s.stats.Puts++
	if err == nil {
		_, err = s.seg.Write(rec) //bpvet:locked(s.mu) one write per record under the store's lock keeps this process's appends whole and in order, and the counters agree with what reached the segment
	}
	if err != nil {
		s.stats.PutErrors++
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// SetFileFault installs a write-path fault hook (chaos testing only).
// Set before the store sees concurrent traffic.
func (s *Store) SetFileFault(f FileFault) { s.fault = f }

// PutBinary stores an opaque binary payload under key. The value is the
// payload's JSON base64 encoding, so binary entries (e.g. simulator
// snapshots) ride the same record format — and the same quarantine
// rules — as JSON results.
func (s *Store) PutBinary(key string, data []byte) error {
	v, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	return s.Put(key, v)
}

// GetBinary returns the binary payload stored under key via PutBinary.
// An entry whose value does not decode as a base64 string is treated as
// a miss, exactly like an undecodable result entry.
func (s *Store) GetBinary(key string) ([]byte, bool) {
	raw, ok := s.Get(key)
	if !ok {
		return nil, false
	}
	var data []byte
	if json.Unmarshal(raw, &data) != nil {
		return nil, false
	}
	return data, true
}

// Key derives the store key for a payload under this store's schema.
func (s *Store) Key(payload []byte) string { return Key(s.schema, payload) }

// Len returns the number of entries currently loaded.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the per-schema directory holding this store's segments.
func (s *Store) Dir() string { return s.dir }

// isSegment reports whether a directory entry name is a live segment
// (not a quarantined one, not a foreign or hidden file).
func isSegment(name string) bool {
	return strings.HasSuffix(name, segSuffix) && !strings.HasPrefix(name, ".")
}
