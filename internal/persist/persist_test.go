package persist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

func timeFromUnix(sec int64) time.Time { return time.Unix(sec, 0) }

func newStore(t *testing.T) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New()
	s, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func count(reg *telemetry.Registry, name string) int64 { return reg.Counter(name).Value() }

func TestSaveLoadRoundTrip(t *testing.T) {
	s, reg := newStore(t)
	payload := []byte(`{"result":"the canonical answer"}`)
	if err := s.Save("abc123.Baseline", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("abc123.Baseline")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %q want %q", got, payload)
	}
	if count(reg, "persist/saves") != 1 || count(reg, "persist/loads") != 1 {
		t.Fatalf("counters: saves=%d loads=%d, want 1/1",
			count(reg, "persist/saves"), count(reg, "persist/loads"))
	}
	// Overwrite is a plain save; the newest payload wins.
	if err := s.Save("abc123.Baseline", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load("abc123.Baseline"); string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
}

func TestLoadMissingIsErrNotExist(t *testing.T) {
	s, reg := newStore(t)
	if _, err := s.Load("never.saved"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing record: %v, want ErrNotExist", err)
	}
	if count(reg, "persist/load-misses") != 1 {
		t.Fatal("miss not counted")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, _ := newStore(t)
	for _, key := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
		if err := s.Save(key, []byte("x")); err == nil {
			t.Errorf("Save accepted invalid key %q", key)
		}
		if _, err := s.Load(key); err == nil || errors.Is(err, ErrNotExist) {
			t.Errorf("Load of invalid key %q: %v, want validation error", key, err)
		}
	}
}

// TestCorruptionQuarantined flips every single byte position of a stored
// record in turn and requires each mutation to be detected as a typed
// CorruptEntryError, moved to quarantine, and to leave the key a plain miss
// afterwards — the "degrade to re-solve, never decode garbage" contract.
func TestCorruptionQuarantined(t *testing.T) {
	payload := []byte("payload-bytes-under-test")
	frameLen := headerBytes + len(payload)
	for pos := 0; pos < frameLen; pos++ {
		s, reg := newStore(t)
		if err := s.Save("key.cfg", payload); err != nil {
			t.Fatal(err)
		}
		path := s.path("key.cfg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[pos] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = s.Load("key.cfg")
		var ce *CorruptEntryError
		if !errors.As(err, &ce) {
			t.Fatalf("byte %d corrupted: Load = %v, want CorruptEntryError", pos, err)
		}
		if ce.Quarantine == "" {
			t.Fatalf("byte %d: record not quarantined", pos)
		}
		if _, err := os.Stat(ce.Quarantine); err != nil {
			t.Fatalf("byte %d: quarantined file missing: %v", pos, err)
		}
		if count(reg, "persist/corrupt-quarantined") != 1 {
			t.Fatalf("byte %d: quarantine counter = %d", pos, count(reg, "persist/corrupt-quarantined"))
		}
		if s.QuarantinedCount() != 1 {
			t.Fatalf("byte %d: QuarantinedCount = %d", pos, s.QuarantinedCount())
		}
		if _, err := s.Load("key.cfg"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("byte %d: after quarantine Load = %v, want ErrNotExist", pos, err)
		}
	}
}

func TestTruncationQuarantined(t *testing.T) {
	for _, keep := range []int{0, 3, headerBytes - 1, headerBytes, headerBytes + 4} {
		s, _ := newStore(t)
		if err := s.Save("trunc.cfg", []byte("a-payload-longer-than-all-cuts")); err != nil {
			t.Fatal(err)
		}
		path := s.path("trunc.cfg")
		data, _ := os.ReadFile(path)
		if keep > len(data) {
			t.Fatalf("cut %d beyond frame %d", keep, len(data))
		}
		os.WriteFile(path, data[:keep], 0o644)
		_, err := s.Load("trunc.cfg")
		var ce *CorruptEntryError
		if !errors.As(err, &ce) {
			t.Fatalf("truncated to %d bytes: Load = %v, want CorruptEntryError", keep, err)
		}
	}
}

// TestQuarantineNeverOverwrites saves+corrupts the same key twice and
// requires both damaged records to survive side by side in quarantine.
func TestQuarantineNeverOverwrites(t *testing.T) {
	s, _ := newStore(t)
	for i := 0; i < 2; i++ {
		if err := s.Save("dup.cfg", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		data, _ := os.ReadFile(s.path("dup.cfg"))
		data[len(data)-1] ^= 0xFF
		os.WriteFile(s.path("dup.cfg"), data, 0o644)
		if _, err := s.Load("dup.cfg"); err == nil {
			t.Fatal("corrupt record loaded")
		}
	}
	if got := s.QuarantinedCount(); got != 2 {
		t.Fatalf("QuarantinedCount = %d, want 2 (no overwrite)", got)
	}
}

func TestDeleteAndKeysFIFO(t *testing.T) {
	s, reg := newStore(t)
	// Force a deterministic FIFO order via explicit mtimes (same-second
	// saves are common on fast filesystems).
	names := []string{"c.third", "a.first", "b.second"}
	for _, k := range names {
		if err := s.Save(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	base := int64(1700000000)
	for i, k := range []string{"a.first", "b.second", "c.third"} {
		when := base + int64(i)
		if err := os.Chtimes(s.path(k), timeFromUnix(when), timeFromUnix(when)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "a.first" || keys[1] != "b.second" || keys[2] != "c.third" {
		t.Fatalf("Keys() = %v, want oldest-first", keys)
	}
	if err := s.Delete("b.second"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("b.second"); err != nil { // idempotent
		t.Fatalf("second delete: %v", err)
	}
	if count(reg, "persist/deletes") != 1 {
		t.Fatalf("persist/deletes = %d, want 1", count(reg, "persist/deletes"))
	}
	keys, _ = s.Keys()
	if len(keys) != 2 {
		t.Fatalf("after delete Keys() = %v", keys)
	}
	if _, err := s.Load("b.second"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("deleted key loads: %v", err)
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crashed"), []byte("half a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-crashed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crashed temp file not swept on open")
	}
	if count(reg, "persist/temp-swept") != 1 {
		t.Fatal("sweep not counted")
	}
	keys, _ := s.Keys()
	if len(keys) != 0 {
		t.Fatalf("temp file surfaced as a key: %v", keys)
	}
}

// TestWriteFailFault: the persist/write-fail site fails the save before any
// byte lands; the previous record (if any) survives untouched.
func TestWriteFailFault(t *testing.T) {
	s, reg := newStore(t)
	if err := s.Save("k.cfg", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Explicit(faultinject.PersistWriteFail)
	s.SetFaults(plan)
	err := s.Save("k.cfg", []byte("v2"))
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != faultinject.PersistWriteFail {
		t.Fatalf("Save under write-fail = %v, want injected error", err)
	}
	if count(reg, "persist/save-failures") != 1 {
		t.Fatal("save failure not counted")
	}
	if got, err := s.Load("k.cfg"); err != nil || string(got) != "v1" {
		t.Fatalf("old record damaged by failed save: %q %v", got, err)
	}
	// Single shot: the next save succeeds.
	if err := s.Save("k.cfg", []byte("v2")); err != nil {
		t.Fatal(err)
	}
}

// TestTornWriteFault: the torn write reports success (like the crash it
// models) but the next load must quarantine, never decode a prefix.
func TestTornWriteFault(t *testing.T) {
	s, reg := newStore(t)
	s.SetFaults(faultinject.Explicit(faultinject.PersistTornWrite))
	if err := s.Save("k.cfg", []byte("a payload that will be torn")); err != nil {
		t.Fatalf("torn save must look successful, got %v", err)
	}
	_, err := s.Load("k.cfg")
	var ce *CorruptEntryError
	if !errors.As(err, &ce) {
		t.Fatalf("Load after torn write = %v, want CorruptEntryError", err)
	}
	if count(reg, "persist/corrupt-quarantined") != 1 {
		t.Fatal("torn record not quarantined")
	}
}

// TestBitFlipFault: same story for at-rest corruption after a good save.
func TestBitFlipFault(t *testing.T) {
	s, _ := newStore(t)
	s.SetFaults(faultinject.Explicit(faultinject.PersistBitFlip))
	if err := s.Save("k.cfg", []byte("a payload that will decay")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Load("k.cfg")
	var ce *CorruptEntryError
	if !errors.As(err, &ce) {
		t.Fatalf("Load after bit flip = %v, want CorruptEntryError", err)
	}
	if _, err := s.Load("k.cfg"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("flipped record still present: %v", err)
	}
}

func TestCallerQuarantine(t *testing.T) {
	s, reg := newStore(t)
	if err := s.Save("semantic.cfg", []byte("frames fine, decodes inconsistently")); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("semantic.cfg", "content hash mismatch"); err == nil {
		t.Fatal("Quarantine returned nil, want typed error")
	} else {
		var ce *CorruptEntryError
		if !errors.As(err, &ce) || ce.Reason != "content hash mismatch" {
			t.Fatalf("Quarantine error = %v", err)
		}
	}
	if count(reg, "persist/corrupt-quarantined") != 1 || s.QuarantinedCount() != 1 {
		t.Fatal("caller-detected corruption not quarantined")
	}
}

// TestSaveFrameBytes pins the on-disk frame, written without a frame copy:
// magic, version 1 and the payload length (little-endian), the payload's
// SHA-256, then the payload; a torn write keeps the header and the first
// half of the payload.
func TestSaveFrameBytes(t *testing.T) {
	payload := []byte(`{"format":2,"source":"int main() { return 0; }"}`)
	want := append([]byte("KSPR\x01\x00\x00\x00"), byte(len(payload)), 0, 0, 0, 0, 0, 0, 0)
	sum := sha256.Sum256(payload)
	want = append(append(want, sum[:]...), payload...)
	for _, torn := range []bool{false, true} {
		s, _ := newStore(t)
		if torn {
			s.SetFaults(faultinject.Explicit(faultinject.PersistTornWrite))
		}
		if err := s.Save("k.cfg", payload); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.path("k.cfg"))
		if err != nil {
			t.Fatal(err)
		}
		wantFile := want
		if torn {
			wantFile = want[:len(want)-len(payload)+len(payload)/2]
		}
		if !bytes.Equal(got, wantFile) {
			t.Fatalf("torn=%v: record file is\n%x\nwant\n%x", torn, got, wantFile)
		}
	}
}
