// Package persist is the crash-safe on-disk result store behind the service
// daemon's warm restarts: a flat directory of framed records keyed by the
// same SHA-256 content identities the in-memory caches use, written so that
// any interrupted or corrupted write degrades to a cache miss — never to a
// wrong answer.
//
// The robustness contract mirrors internal/chaos's in-memory taxonomy,
// extended to disk:
//
//   - a Save is atomic: the record is written to a temp file in the store
//     directory, fsynced, and renamed over the final name, so a crash leaves
//     either the old record, the new record, or a stray temp file (ignored
//     and swept on open) — never a half-written final record;
//   - every record is framed with a magic, a format version, the payload
//     length, and a SHA-256 checksum over the payload; Load verifies all
//     four, so torn writes that beat the atomicity (reordered metadata,
//     lying fsync) and at-rest bit flips are detected, not decoded;
//   - a record that fails verification is moved into the quarantine/
//     subdirectory (preserved for inspection, counted in
//     "persist/corrupt-quarantined") and surfaced as a typed
//     *CorruptEntryError, which callers treat exactly like a miss: re-solve,
//     re-save, keep serving.
//
// The three persist fault-injection sites (internal/faultinject) attack
// each leg of that contract deterministically: persist/write-fail fails a
// Save before any byte is written, persist/torn-write truncates a record
// mid-frame *after* the rename, and persist/bit-flip corrupts one stored
// byte after a successful Save. FuzzPersistRoundTrip generalizes bit-flip to
// arbitrary single-byte corruption at arbitrary offsets.
package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Frame layout: magic | version | payload length | payload SHA-256 | payload.
const (
	magic       = "KSPR"
	version     = 1
	headerBytes = 4 + 4 + 8 + sha256.Size // magic + version + length + checksum
)

// recordExt is the store filename suffix; anything else in the directory
// (temp files, quarantine/, operator notes) is not a record.
const recordExt = ".rec"

// ErrNotExist reports a key with no stored record — the ordinary cache miss,
// as opposed to the corrupt record CorruptEntryError reports.
var ErrNotExist = errors.New("persist: no such record")

// CorruptEntryError is the typed verification failure: the record exists but
// its frame is damaged (bad magic, unknown version, wrong length, checksum
// mismatch). By the time the caller sees it the record has already been
// moved to quarantine/, so retrying the Load yields ErrNotExist and the
// caller's miss path takes over.
type CorruptEntryError struct {
	Key        string
	Path       string // original record path
	Quarantine string // where the damaged record was preserved ("" if the move itself failed)
	Reason     string
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("persist: corrupt record %s (%s): quarantined to %s", e.Key, e.Reason, e.Quarantine)
}

// keyPattern restricts keys to filename-safe characters so a key maps 1:1 to
// a record name with no escaping (and no traversal).
var keyPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,200}$`)

// Store is a crash-safe key→payload record store rooted at one directory.
// Safe for concurrent use. Create with Open.
type Store struct {
	dir     string
	metrics *telemetry.Registry
	faults  *faultinject.Plan
	mu      sync.Mutex // serializes multi-step file operations (save, quarantine)
}

// Open creates (if needed) the store directory and its quarantine/
// subdirectory, sweeps temp files left by a crashed writer, and returns the
// store. The registry (may be nil) receives the persist/* counters.
func Open(dir string, metrics *telemetry.Registry) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	s := &Store{dir: dir, metrics: metrics}
	// A crashed Save leaves a ".tmp-*" file that never got renamed; it holds
	// nothing the frame protocol vouches for, so sweeping it is safe.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	for _, t := range tmps {
		os.Remove(t)
		s.counter("persist/temp-swept").Inc()
	}
	return s, nil
}

// SetFaults arms a fault-injection plan on the store's write path (the
// persist/write-fail, persist/torn-write, and persist/bit-flip sites). Must
// be set before the store is used concurrently.
func (s *Store) SetFaults(p *faultinject.Plan) { s.faults = p }

func (s *Store) counter(name string) *telemetry.Counter {
	if s.metrics == nil {
		return telemetry.New().Counter(name) // throwaway; keeps call sites branch-free
	}
	return s.metrics.Counter(name)
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+recordExt) }

func checkKey(key string) error {
	if !keyPattern.MatchString(key) {
		return fmt.Errorf("persist: invalid key %q (want %s)", key, keyPattern)
	}
	return nil
}

// frameHeader returns the frame header of a payload: magic | version |
// length | checksum. The payload follows it on disk.
func frameHeader(payload []byte) [headerBytes]byte {
	var h [headerBytes]byte
	copy(h[:], magic)
	binary.LittleEndian.PutUint32(h[4:], version)
	binary.LittleEndian.PutUint64(h[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(h[16:], sum[:])
	return h
}

// decode verifies a frame and returns its payload; a non-empty reason means
// the record is corrupt.
func decode(data []byte) (payload []byte, reason string) {
	if len(data) < headerBytes {
		return nil, fmt.Sprintf("truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Sprintf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return nil, fmt.Sprintf("unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n != uint64(len(data)-headerBytes) {
		return nil, fmt.Sprintf("payload length %d does not match frame (%d bytes after header)", n, len(data)-headerBytes)
	}
	sum := sha256.Sum256(data[headerBytes:])
	if string(sum[:]) != string(data[16:headerBytes]) {
		return nil, "payload checksum mismatch"
	}
	return data[headerBytes:], ""
}

// Save atomically writes key's record: temp file, fsync, rename. On any
// error (including an injected persist/write-fail) nothing replaces a
// previously stored record, and the caller is expected to keep the entry
// dirty in memory and retry (the daemon retries at drain).
func (s *Store) Save(key string, payload []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := s.faults.Err(faultinject.PersistWriteFail); err != nil {
		s.counter("persist/save-failures").Inc()
		return fmt.Errorf("persist: save %s: %w", key, err)
	}
	header := frameHeader(payload)
	// Torn write: keep only a prefix of the frame but let the rename land,
	// simulating a crash where the directory entry hit disk before the data.
	// The Save still "succeeds" — exactly like the real crash it models —
	// and the damage is discovered by the next Load's checksum.
	body := payload
	if s.faults.Fire(faultinject.PersistTornWrite) {
		body = payload[:len(payload)/2]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeAtomic(s.path(key), header[:], body); err != nil {
		s.counter("persist/save-failures").Inc()
		return fmt.Errorf("persist: save %s: %w", key, err)
	}
	// Bit flip: corrupt one stored byte after the record is durable,
	// simulating at-rest media decay between this save and the next load.
	if s.faults.Fire(faultinject.PersistBitFlip) {
		s.flipByte(s.path(key))
	}
	s.counter("persist/saves").Inc()
	return nil
}

// writeAtomic writes the concatenation of parts to path via temp file +
// fsync + rename.
func (s *Store) writeAtomic(path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, data := range parts {
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// flipByte XORs one mid-file byte in place (the bit-flip fault body).
func (s *Store) flipByte(path string) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	data[len(data)/2] ^= 0x40
	os.WriteFile(path, data, 0o644)
}

// Load reads and verifies key's record. A missing record is ErrNotExist; a
// damaged one is moved to quarantine/ and returned as *CorruptEntryError —
// never a partial or silently wrong payload.
func (s *Store) Load(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.counter("persist/load-misses").Inc()
		return nil, fmt.Errorf("%w: %s", ErrNotExist, key)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", key, err)
	}
	payload, reason := decode(data)
	if reason != "" {
		return nil, s.quarantine(key, path, reason)
	}
	s.counter("persist/loads").Inc()
	return payload, nil
}

// Quarantine moves key's record into quarantine/ for a caller-detected
// corruption (e.g. a payload that frames correctly but decodes to an
// inconsistent result) and returns the typed error Load would have.
func (s *Store) Quarantine(key, reason string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return s.quarantine(key, s.path(key), reason)
}

func (s *Store) quarantine(key, path, reason string) *CorruptEntryError {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	// Never overwrite earlier quarantined evidence: suffix until free.
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); errors.Is(err, os.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.dir, "quarantine", filepath.Base(path)+"."+strconv.Itoa(i))
	}
	e := &CorruptEntryError{Key: key, Path: path, Reason: reason}
	if err := os.Rename(path, dst); err == nil {
		e.Quarantine = dst
	} else {
		// The move failed (e.g. the file vanished); removing is the next best
		// containment — the record must not be loadable again either way.
		os.Remove(path)
	}
	s.counter("persist/corrupt-quarantined").Inc()
	return e
}

// Delete removes key's record (missing records are fine): the disk-side half
// of cache eviction.
func (s *Store) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	err := os.Remove(s.path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("persist: delete %s: %w", key, err)
	}
	if err == nil {
		s.counter("persist/deletes").Inc()
	}
	return nil
}

// Keys lists stored record keys oldest-first (by modification time, ties by
// name) — the FIFO order a bounded warm-load consumes so the store and the
// in-memory admission cache evict coherently.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: scan store: %w", err)
	}
	type rec struct {
		key string
		mod int64
	}
	var recs []rec
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, recordExt) {
			continue
		}
		key := strings.TrimSuffix(name, recordExt)
		if checkKey(key) != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{key: key, mod: info.ModTime().UnixNano()})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].mod != recs[j].mod {
			return recs[i].mod < recs[j].mod
		}
		return recs[i].key < recs[j].key
	})
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.key
	}
	return keys, nil
}

// QuarantinedCount reports how many damaged records quarantine/ holds (the
// runbook's pile-up signal).
func (s *Store) QuarantinedCount() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}
