// Package store is a disk-backed, content-addressed result store: the
// persistence tier under the sweep engine's deterministic memoization.
// Keys are stable hashes of a fully specified computation (built with
// KeyBuilder, including a schema version and a LayoutHash of the serialized
// structs); values are opaque payload bytes the caller serializes.
//
// The blobs directory is the store's only state: one framed file per key,
// named by the key. Open lists it once into an in-memory LRU table, oldest
// modification time first, and every operation after that keeps the table
// and the directory in step.
//
// Durability and safety model, in order:
//
//   - Atomic blobs. A blob is written to a temp file in the blobs directory
//     and renamed into place, so a reader never observes a half-written
//     blob under its final name, and Open never lists a temp file. The
//     payload is framed with a magic, a length and a CRC32, so truncation
//     or bit rot is detected on read.
//   - Corruption is a miss. A blob that fails framing checks is moved to
//     the quarantine directory and forgotten; the caller re-computes and
//     overwrites. The store never returns bytes that failed the checksum.
//   - Bounded size. Total blob bytes are capped; Put evicts
//     least-recently-used blobs until the new blob fits. The newest blob is
//     never evicted by its own Put.
//   - Recency is a hint. Close stamps the blobs this process read or wrote
//     with strictly increasing modification times in LRU order, so a clean
//     restart resumes the exact order. A crash before Close loses only that
//     process's recency, never data.
//   - Two tiers. A payload read or written in this process stays in its
//     table entry, so repeated Gets skip the disk entirely (the
//     "warm-memory" tier); eviction drops it with the blob.
package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultMaxBytes is the disk budget when Options.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20 // 256 MiB

// Blob framing: magic, payload length, CRC32 (IEEE) of the payload.
var blobMagic = [4]byte{'S', 'D', 'B', '1'}

const blobHeaderLen = 4 + 4 + 4

// stampStep separates the modification times Close writes. It is above the
// resolution of the usual Linux filesystems (ext4, xfs, btrfs, tmpfs), so
// consecutive stamps stay distinct on disk.
const stampStep = time.Microsecond

// writeBlob writes a blob's framed bytes to its temp file. Tests replace it
// to fail a write part-way, as a full disk does.
var writeBlob = (*os.File).Write

// Options configure Open.
type Options struct {
	// MaxBytes caps the total payload bytes on disk; 0 means
	// DefaultMaxBytes, negative means unbounded.
	MaxBytes int64
}

// Stats counts store traffic since Open.
type Stats struct {
	MemHits   int64 // served from the in-process memory tier
	DiskHits  int64 // served from a verified disk blob
	Misses    int64 // key not present (includes quarantined corruption)
	Puts      int64 // blobs written
	Evictions int64 // blobs evicted by the size bound
	Corrupt   int64 // blobs that failed framing checks and were quarantined
	Coalesced int64 // payloads shared from a concurrent GetOrCompute leader
}

// entry is one blob in the LRU table.
type entry struct {
	key     string
	size    int64  // payload bytes (framing excluded)
	payload []byte // nil until the blob is read or written in this process
}

// Store is safe for concurrent use by multiple goroutines.
type Store struct {
	dir      string
	maxBytes int64
	newest   time.Time // the latest modification time Open listed

	mu      sync.Mutex
	lru     list.List                // *entry values, most recently used first
	entries map[string]*list.Element // lru's elements by key
	flights map[string]*flight       // in-progress GetOrCompute leaders by key
	size    int64
	stats   Stats
}

// Open opens (or creates) a store rooted at dir. One listing of the blobs
// directory fills the LRU table, least recently used (oldest modification
// time, then lowest key) last.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, maxBytes: opts.MaxBytes}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	for _, sub := range []string{blobsDir(dir), quarantineDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	dirents, err := os.ReadDir(blobsDir(dir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type blob struct {
		e     *entry
		mtime time.Time
	}
	blobs := make([]blob, 0, len(dirents))
	for _, de := range dirents {
		if !validKey(de.Name()) {
			continue // a temp file or foreign debris; never served
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		blobs = append(blobs, blob{&entry{key: de.Name(), size: max(info.Size()-blobHeaderLen, 0)}, info.ModTime()})
	}
	slices.SortFunc(blobs, func(a, b blob) int {
		if c := a.mtime.Compare(b.mtime); c != 0 {
			return c
		}
		return strings.Compare(a.e.key, b.e.key)
	})
	s.entries = make(map[string]*list.Element, len(blobs))
	for _, b := range blobs {
		s.entries[b.e.key] = s.lru.PushFront(b.e)
		s.size += b.e.size
		s.newest = b.mtime
	}
	return s, nil
}

func blobsDir(dir string) string      { return filepath.Join(dir, "blobs") }
func quarantineDir(dir string) string { return filepath.Join(dir, "quarantine") }

func (s *Store) blobPath(key string) string { return filepath.Join(blobsDir(s.dir), key) }

// validKey reports whether key is a KeyBuilder-shaped name: fixed-length
// lowercase hex. Rejecting anything else keeps externally supplied keys
// (e.g. an HTTP path segment) from escaping the blobs directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// frame wraps payload in the on-disk blob format.
func frame(payload []byte) []byte {
	buf := make([]byte, blobHeaderLen+len(payload))
	copy(buf, blobMagic[:])
	binary.BigEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	copy(buf[blobHeaderLen:], payload)
	return buf
}

var errCorrupt = errors.New("store: blob failed framing checks")

// unframe validates and strips the blob framing.
func unframe(buf []byte) ([]byte, error) {
	if len(buf) < blobHeaderLen || [4]byte(buf[:4]) != blobMagic {
		return nil, errCorrupt
	}
	n := binary.BigEndian.Uint32(buf[4:])
	payload := buf[blobHeaderLen:]
	if uint32(len(payload)) != n {
		return nil, errCorrupt
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[8:]) {
		return nil, errCorrupt
	}
	return payload, nil
}

// Get returns the payload stored under key. A blob that fails its framing
// checks is quarantined and reported as a miss; the only error returns are
// real I/O failures. Callers must not mutate the returned slice — it may be
// the memory tier's copy.
func (s *Store) Get(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false, nil
	}
	e := el.Value.(*entry)
	if e.payload != nil {
		s.stats.MemHits++
		s.lru.MoveToFront(el)
		return e.payload, true, nil
	}
	buf, err := os.ReadFile(s.blobPath(key))
	if err != nil {
		// The table promised a blob that is gone — treat like corruption
		// minus the quarantine move.
		s.dropLocked(el)
		s.stats.Corrupt++
		s.stats.Misses++
		return nil, false, nil
	}
	payload, err := unframe(buf)
	if err != nil {
		s.quarantineLocked(key)
		s.stats.Corrupt++
		s.stats.Misses++
		return nil, false, nil
	}
	e.payload = payload
	s.stats.DiskHits++
	s.lru.MoveToFront(el)
	return payload, true, nil
}

// Put stores payload under key, atomically (write-then-rename), then
// evicts least-recently-used blobs until the store fits its byte budget.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	tmp, err := os.CreateTemp(blobsDir(s.dir), ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = writeBlob(tmp, frame(payload))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), s.blobPath(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	el, ok := s.entries[key]
	if !ok {
		el = s.lru.PushFront(&entry{key: key})
		s.entries[key] = el
	}
	e := el.Value.(*entry)
	s.size += int64(len(payload)) - e.size
	e.size, e.payload = int64(len(payload)), payload
	s.lru.MoveToFront(el)
	s.stats.Puts++
	// The blob just written is at the front and the loop keeps one entry,
	// so a Put never evicts its own blob.
	for s.maxBytes >= 0 && s.size > s.maxBytes && s.lru.Len() > 1 {
		victim := s.dropLocked(s.lru.Back())
		os.Remove(s.blobPath(victim.key))
		s.stats.Evictions++
	}
	return nil
}

// dropLocked forgets a table entry without touching disk and returns it.
func (s *Store) dropLocked(el *list.Element) *entry {
	e := s.lru.Remove(el).(*entry)
	delete(s.entries, e.key)
	s.size -= e.size
	return e
}

// quarantineLocked moves a corrupt blob aside for post-mortem and forgets
// it, so the next Get is a clean miss and the next Put overwrites.
func (s *Store) quarantineLocked(key string) {
	if el, ok := s.entries[key]; ok {
		s.dropLocked(el)
	}
	os.Rename(s.blobPath(key), filepath.Join(quarantineDir(s.dir), key))
}

// Quarantine moves the blob under key (if any) to the quarantine directory
// and forgets it — for callers whose payload decoding fails above the
// framing layer.
func (s *Store) Quarantine(key string) error {
	if !validKey(key) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantineLocked(key)
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// SizeBytes returns the total payload bytes on disk.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Keys returns every stored key in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for key := range s.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// Close leaves the LRU order on disk for the next Open: it stamps every
// blob this process read or wrote with strictly increasing modification
// times, least recently used first, all later than any blob Open listed.
// A blob that has vanished is skipped. The store must not be used after
// Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := time.Now()
	if !t.After(s.newest) {
		t = s.newest.Add(stampStep)
	}
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.payload == nil {
			continue
		}
		if err := os.Chtimes(s.blobPath(e.key), t, t); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
		t = t.Add(stampStep)
	}
	return nil
}
