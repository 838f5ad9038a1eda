package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/persist"
)

// postRaw is post without the JSON decode: byte-identity tests compare the
// exact response bodies a client would see.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func waitWarm(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitWarm(ctx); err != nil {
		t.Fatalf("warm-load did not finish: %v", err)
	}
}

func recordFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRestartWarmCache is the tentpole acceptance test at the serve layer:
// solve on daemon A with a cache dir, restart as daemon B on the same dir,
// and every endpoint must answer byte-identically from the warm-loaded
// snapshot — /analyze additionally flipping to cached=true without a solve.
func TestRestartWarmCache(t *testing.T) {
	dir := t.TempDir()
	queries := []struct {
		path string
		body map[string]any
	}{
		{"/analyze", map[string]any{"source": demoSource}},
		{"/pointsto", map[string]any{"source": demoSource, "fn": "pick"}},
		{"/pointsto", map[string]any{"source": demoSource, "fn": "main", "reg": "%t1"}},
		{"/cfi-targets", map[string]any{"source": demoSource}},
		{"/invariants", map[string]any{"source": demoSource}},
	}

	a, tsA := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, a)
	want := make([][]byte, len(queries))
	for i, q := range queries {
		status, raw := postRaw(t, tsA, q.path, q.body)
		if status != http.StatusOK {
			t.Fatalf("daemon A %s: status %d: %s", q.path, status, raw)
		}
		// Re-query so every recorded body is the cached form (/analyze's
		// first answer says cached=false; the warm restart must match the
		// cached=true form).
		_, want[i] = postRaw(t, tsA, q.path, q.body)
	}
	if len(recordFiles(t, dir)) == 0 {
		t.Fatal("daemon A persisted no records")
	}
	tsA.Close()

	b, tsB := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, b)
	status, ready := get(t, tsB, "/readyz")
	if status != http.StatusOK || ready["ready"] != true {
		t.Fatalf("/readyz after warm-load: %d %v", status, ready)
	}
	if ready["warm_loaded"].(float64) < 1 {
		t.Fatalf("nothing warm-loaded: %v", ready)
	}
	for i, q := range queries {
		status, raw := postRaw(t, tsB, q.path, q.body)
		if status != http.StatusOK {
			t.Fatalf("daemon B %s: status %d: %s", q.path, status, raw)
		}
		if !bytes.Equal(raw, want[i]) {
			t.Errorf("daemon B %s diverged after restart:\n got %s\nwant %s", q.path, raw, want[i])
		}
	}
	if got := counter(b, "core/analyses"); got != 0 {
		t.Errorf("daemon B solved %d times, want 0 (warm cache)", got)
	}
	status, body, _ := post(t, tsB, "/analyze", map[string]any{"source": demoSource})
	if status != http.StatusOK || body["cached"] != true {
		t.Errorf("warm restart not cached: %d %v", status, body)
	}
}

// TestCorruptRecordQuarantinedAndResolved damages a persisted record on
// disk between daemon generations: the restarted daemon must quarantine it
// during warm-load (counter + /readyz), then answer the same submission by
// transparently re-solving — byte-identical to the original fresh solve,
// never a decode of damaged bytes.
func TestCorruptRecordQuarantinedAndResolved(t *testing.T) {
	dir := t.TempDir()
	a, tsA := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, a)
	status, fresh := postRaw(t, tsA, "/analyze", map[string]any{"source": demoSource})
	if status != http.StatusOK {
		t.Fatalf("fresh solve: %d %s", status, fresh)
	}
	tsA.Close()

	files := recordFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("record files = %v, want 1", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	b, tsB := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, b)
	if got := counter(b, "persist/corrupt-quarantined"); got != 1 {
		t.Fatalf("persist/corrupt-quarantined = %d, want 1", got)
	}
	_, ready := get(t, tsB, "/readyz")
	if ready["warm_quarantined"].(float64) != 1 {
		t.Fatalf("/readyz warm_quarantined = %v, want 1", ready)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(quarantined) != 1 {
		t.Fatalf("quarantine dir = %v, want the damaged record", quarantined)
	}
	status, resolved := postRaw(t, tsB, "/analyze", map[string]any{"source": demoSource})
	if status != http.StatusOK {
		t.Fatalf("re-solve after quarantine: %d %s", status, resolved)
	}
	if !bytes.Equal(resolved, fresh) {
		t.Errorf("re-solve diverged from original fresh solve:\n got %s\nwant %s", resolved, fresh)
	}
	if got := counter(b, "core/analyses"); got == 0 {
		t.Error("daemon B answered without re-solving the quarantined program")
	}
}

// TestRecordKeyMismatchQuarantined covers semantic corruption: a record
// whose frame verifies but whose payload describes a different program than
// its key claims must be quarantined at warm-load, not installed.
func TestRecordKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, tsA := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, a)
	if status, raw := postRaw(t, tsA, "/analyze", map[string]any{"source": demoSource}); status != http.StatusOK {
		t.Fatalf("solve: %d %s", status, raw)
	}
	tsA.Close()

	// Re-key the (intact) record under a different program hash.
	files := recordFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("record files = %v", files)
	}
	otherKey := hashSource("int other; int main() { return other; }") + ".Kaleidoscope.rec"
	if err := os.Rename(files[0], filepath.Join(dir, otherKey)); err != nil {
		t.Fatal(err)
	}

	b, _ := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, b)
	if got := counter(b, "persist/corrupt-quarantined"); got != 1 {
		t.Fatalf("persist/corrupt-quarantined = %d, want 1", got)
	}
	if got := b.warmLoaded.Load(); got != 0 {
		t.Fatalf("mismatched record installed: warm_loaded = %d", got)
	}
}

// TestUnsortedRecordQuarantined: the daemon finds pointers and CFI sites by
// binary search in a record's own lists, so a record whose frame verifies
// but whose lists are out of order or repeat an entry would misanswer. It
// is quarantined at warm-load instead, and the query re-solves.
func TestUnsortedRecordQuarantined(t *testing.T) {
	m, err := minic.Compile("demo", demoSource)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.Analyze(m, invariant.All())
	for name, damage := range map[string]func(*resultSnapshot){
		"pointers reversed": func(snap *resultSnapshot) { slices.Reverse(snap.Regs) },
		"pointer repeated":  func(snap *resultSnapshot) { snap.Regs[1] = snap.Regs[0] },
		"CFI site repeated": func(snap *resultSnapshot) { snap.CFISites = append(snap.CFISites, snap.CFISites[0]) },
	} {
		t.Run(name, func(t *testing.T) {
			snap := mustProject(t, sys.Optimistic, sys.Fallback)
			damage(snap)
			payload, err := json.Marshal(persistRecord{Format: recordFormat, Source: demoSource, Config: "Kaleidoscope", Snapshot: snap})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, err := persist.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(persistKey(hashSource(demoSource), "Kaleidoscope"), payload); err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{CacheDir: dir})
			waitWarm(t, s)
			if got := counter(s, "persist/corrupt-quarantined"); got != 1 || s.warmLoaded.Load() != 0 {
				t.Fatalf("persist/corrupt-quarantined = %d, warm_loaded = %d; want 1, 0", got, s.warmLoaded.Load())
			}
			_, fresh := newTestServer(t, Config{})
			body := map[string]any{"source": demoSource, "fn": "pick"}
			status, got := postRaw(t, ts, "/pointsto", body)
			_, want := postRaw(t, fresh, "/pointsto", body)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("/pointsto after quarantine: %d\n got %s\nwant %s", status, got, want)
			}
		})
	}
}

// TestEvictionDeletesDiskRecords: FIFO program eviction must delete the
// victim's disk records too, so a restart cannot resurrect an entry the
// cache bound already dropped.
func TestEvictionDeletesDiskRecords(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir, MaxPrograms: 1})
	waitWarm(t, s)
	status, first, _ := post(t, ts, "/analyze", map[string]any{"source": variantSource(0)})
	if status != http.StatusOK {
		t.Fatalf("first solve: %d %v", status, first)
	}
	status, second, _ := post(t, ts, "/analyze", map[string]any{"source": variantSource(1)})
	if status != http.StatusOK {
		t.Fatalf("second solve: %d %v", status, second)
	}
	files := recordFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("records after eviction = %v, want only the survivor", files)
	}
	wantKey := second["program"].(string) + "." + second["config"].(string) + ".rec"
	if filepath.Base(files[0]) != wantKey {
		t.Errorf("surviving record = %s, want %s", filepath.Base(files[0]), wantKey)
	}
}

// TestWarmLoadBounded: a restart into a smaller MaxPrograms must warm-load
// only the newest programs and delete the overflow records — the same FIFO
// outcome the live daemon would have reached.
func TestWarmLoadBounded(t *testing.T) {
	dir := t.TempDir()
	a, tsA := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, a)
	hashes := make([]string, 3)
	for i := 0; i < 3; i++ {
		status, body, _ := post(t, tsA, "/analyze", map[string]any{"source": variantSource(i), "config": "baseline"})
		if status != http.StatusOK {
			t.Fatalf("solve %d: %d %v", i, status, body)
		}
		hashes[i] = body["program"].(string)
	}
	tsA.Close()
	// Pin distinct mtimes so the store's oldest-first order is exactly the
	// solve order regardless of filesystem timestamp granularity.
	base := time.Now().Add(-time.Hour)
	for i, h := range hashes {
		path := filepath.Join(dir, h+".Baseline.rec")
		when := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
	}

	b, tsB := newTestServer(t, Config{CacheDir: dir, MaxPrograms: 2})
	waitWarm(t, b)
	if got := counter(b, "persist/warm-evicted"); got != 1 {
		t.Fatalf("persist/warm-evicted = %d, want 1", got)
	}
	if files := recordFiles(t, dir); len(files) != 2 {
		t.Fatalf("records after bounded warm-load = %v, want 2", files)
	}
	// Query the warm survivors before the evicted program: submitting the
	// evicted program re-inserts it and FIFO-evicts a survivor, which is
	// exactly the coherence this test must not confuse itself with.
	for _, q := range []struct {
		i          int
		wantCached bool
	}{{1, true}, {2, true}, {0, false}} {
		status, body, _ := post(t, tsB, "/analyze", map[string]any{"source": variantSource(q.i), "config": "baseline"})
		if status != http.StatusOK || body["cached"] != q.wantCached {
			t.Errorf("program %d after bounded warm-load: status %d cached=%v, want cached=%v",
				q.i, status, body["cached"], q.wantCached)
		}
	}
}

// TestWriteFailDirtyFlushedAtDrain: an injected persist/write-fail must not
// fail the request — the entry is served from memory, marked dirty, and the
// shutdown flush lands it on disk for the next generation.
func TestWriteFailDirtyFlushedAtDrain(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.Explicit(faultinject.PersistWriteFail)
	s, ts := newTestServer(t, Config{CacheDir: dir, Faults: plan})
	waitWarm(t, s)
	status, body, _ := post(t, ts, "/analyze", map[string]any{"source": demoSource})
	if status != http.StatusOK {
		t.Fatalf("solve under write-fail: %d %v (a disk fault must not fail the request)", status, body)
	}
	if got := counter(s, "persist/save-failures"); got != 1 {
		t.Fatalf("persist/save-failures = %d, want 1", got)
	}
	if files := recordFiles(t, dir); len(files) != 0 {
		t.Fatalf("failed save left records: %v", files)
	}
	// The entry still serves from memory.
	if status, body, _ := post(t, ts, "/analyze", map[string]any{"source": demoSource}); status != http.StatusOK || body["cached"] != true {
		t.Fatalf("dirty entry not served from memory: %d %v", status, body)
	}
	flushed, failed := s.FlushDirty()
	if flushed != 1 || failed != 0 {
		t.Fatalf("FlushDirty = (%d, %d), want (1, 0)", flushed, failed)
	}
	if files := recordFiles(t, dir); len(files) != 1 {
		t.Fatalf("flush landed %d records, want 1", len(files))
	}

	b, tsB := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, b)
	if status, body, _ := post(t, tsB, "/analyze", map[string]any{"source": demoSource}); status != http.StatusOK || body["cached"] != true {
		t.Errorf("flushed record did not warm the next generation: %d %v", status, body)
	}
}

// TestDrainRefusesNewWorkCompletesInFlight pins the drain ordering at the
// serve layer: a request already holding its admission slot when drain
// begins completes normally, while new POST work gets the typed 503 and
// /readyz flips to 503 draining (GET endpoints keep answering).
func TestDrainRefusesNewWorkCompletesInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHoldSolve = func() {
		close(started)
		<-release
	}
	type result struct {
		status int
		body   map[string]any
	}
	done := make(chan result, 1)
	go func() {
		status, body, _ := post(t, ts, "/analyze", map[string]any{"source": demoSource})
		done <- result{status, body}
	}()
	<-started
	s.BeginDrain()

	status, body, hdr := post(t, ts, "/analyze", map[string]any{"source": variantSource(1)})
	if status != http.StatusServiceUnavailable || body["kind"] != "draining" {
		t.Fatalf("new work during drain: %d %v, want 503 draining", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 has no Retry-After hint")
	}
	if status, ready := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable || ready["state"] != "draining" {
		t.Fatalf("/readyz during drain: %d %v", status, ready)
	}
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Error("/healthz must stay 200 during drain (liveness != readiness)")
	}

	close(release)
	r := <-done
	if r.status != http.StatusOK || r.body["cached"] != false {
		t.Fatalf("in-flight request during drain: %d %v, want 200", r.status, r.body)
	}
}

// TestTracezEvictedTraceTyped404: asking /tracez for a trace id that was
// recorded but has since been evicted from the flight recorder must be a
// typed 404 JSON error, not a 500 or an empty export.
func TestTracezEvictedTraceTyped404(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRecent: 1, TraceSlowest: 1})
	var ids []string
	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if id := resp.Header.Get(TraceHeader); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) != 6 {
		t.Fatalf("collected %d trace ids, want 6", len(ids))
	}
	// With a 1-deep ring and a 1-deep slowest shortlist at least one early
	// id must be gone by now.
	evicted := ""
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/tracez?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			evicted = id
			var body map[string]any
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("evicted-trace 404 body is not JSON: %q", raw)
			}
			if body["kind"] != "not-found" {
				t.Fatalf("evicted-trace error kind = %v, want not-found", body["kind"])
			}
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: unexpected status %d: %s", id, resp.StatusCode, raw)
		}
	}
	if evicted == "" {
		t.Fatal("no trace was evicted after overflowing the recorder")
	}
}

// TestStaleFormatRecordResolved plants a record in the unversioned format
// an older daemon wrote (a label list per pointer per view, no format
// field), holding a set the program cannot produce. The restarted daemon
// must delete it as stale rather than serve it or quarantine it, and then
// answer by re-solving, byte-identically to a daemon that never saw it.
func TestStaleFormatRecordResolved(t *testing.T) {
	type staleReg struct {
		Fn         string   `json:"fn"`
		Reg        string   `json:"reg,omitempty"`
		Optimistic []string `json:"optimistic"`
		Fallback   []string `json:"fallback"`
	}
	stale, err := json.Marshal(map[string]any{
		"source": demoSource,
		"config": "Kaleidoscope",
		"snapshot": map[string]any{
			"objects": 1, "constraint_nodes": 1, "solver_iterations": 1, "monitor_sites": 0,
			"icall_sites": []int{}, "cfi_sites": []any{}, "invariants": []any{},
			"regs": []staleReg{{Fn: "pick", Optimistic: []string{"@planted"}, Fallback: []string{"@planted"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := persist.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := persistKey(hashSource(demoSource), "Kaleidoscope")
	if err := st.Save(key, stale); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{CacheDir: dir})
	waitWarm(t, s)
	if got := counter(s, "persist/warm-stale"); got != 1 {
		t.Fatalf("persist/warm-stale = %d, want 1", got)
	}
	if s.warmLoaded.Load() != 0 || s.warmQuarantined.Load() != 0 {
		t.Fatalf("stale record loaded %d / quarantined %d, want 0 / 0", s.warmLoaded.Load(), s.warmQuarantined.Load())
	}
	if files := recordFiles(t, dir); len(files) != 0 {
		t.Fatalf("stale record not deleted: %v", files)
	}
	_, fresh := newTestServer(t, Config{})
	for _, q := range []struct {
		path string
		body map[string]any
	}{
		{"/analyze", map[string]any{"source": demoSource}},
		{"/pointsto", map[string]any{"source": demoSource, "fn": "pick"}},
		{"/pointsto", map[string]any{"source": demoSource, "fn": "main", "reg": "%t1"}},
		{"/cfi-targets", map[string]any{"source": demoSource}},
		{"/invariants", map[string]any{"source": demoSource}},
	} {
		status, got := postRaw(t, ts, q.path, q.body)
		_, want := postRaw(t, fresh, q.path, q.body)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s after a stale record: %d\n got %s\nwant %s", q.path, status, got, want)
		}
		if bytes.Contains(got, []byte("@planted")) {
			t.Fatalf("%s served the stale record: %s", q.path, got)
		}
	}
	if got := counter(s, "core/analyses"); got != 1 {
		t.Fatalf("re-solve ran %d analyses, want 1", got)
	}
	if files := recordFiles(t, dir); len(files) != 1 {
		t.Fatalf("re-solve wrote %d records, want 1", len(files))
	}
}

// pollCtx is a request context that ends on the k-th call of Err, so a test
// can land a cancellation on one exact check of the miss path. Done closes
// at that same moment, as the Context contract requires.
type pollCtx struct {
	context.Context
	k     int64
	polls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newPollCtx(k int64) *pollCtx {
	return &pollCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.k {
		c.once.Do(func() { close(c.done) })
	}
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestMissOverrunAfterSolve cancels a miss at each context check it makes
// once the optimistic solve has finished: the restore check that opens the
// fallback stage, the first projection check, and the check before the
// record write. Each of the three is located by the stage its abort names,
// not by its index. Whichever check it lands on, the client gets the
// solver's typed 503 budget error, no snapshot is installed and no record is
// written; the next request solves afresh and persists.
func TestMissOverrunAfterSolve(t *testing.T) {
	body, _ := json.Marshal(map[string]any{"source": demoSource})
	miss := func(s *Server, ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	// Count the checks a clean miss makes; the last one precedes the write.
	s, _ := newTestServer(t, Config{CacheDir: t.TempDir()})
	waitWarm(t, s)
	clean := newPollCtx(1 << 62)
	if rec := miss(s, clean); rec.Code != http.StatusOK {
		t.Fatalf("clean miss: %d %s", rec.Code, rec.Body)
	}
	checks := clean.polls.Load()
	stages := []string{"fallback stage", "during projection", "during record write"}
	first := map[string]int64{} // stage → the first check that aborts in it
	for k := int64(1); k <= checks; k++ {
		dir := t.TempDir()
		s, ts := newTestServer(t, Config{CacheDir: dir})
		waitWarm(t, s)
		rec := miss(s, newPollCtx(k))
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusServiceUnavailable || e.Kind != "budget" {
			t.Fatalf("cancelled at check %d/%d: %d %s, want 503 budget", k, checks, rec.Code, rec.Body)
		}
		for _, stage := range stages {
			if strings.Contains(e.Error, stage) && first[stage] == 0 {
				first[stage] = k
			}
		}
		if files := recordFiles(t, dir); len(files) != 0 {
			t.Fatalf("cancelled at check %d/%d: records written: %v", k, checks, files)
		}
		if s.cache.lookup(hashSource(demoSource), invariant.All().Name()) != nil {
			t.Fatalf("cancelled at check %d/%d: snapshot installed", k, checks)
		}
		if status, body, _ := post(t, ts, "/analyze", map[string]any{"source": demoSource}); status != http.StatusOK || body["cached"] != false {
			t.Fatalf("retry after the overrun: %d %v, want 200 cached=false", status, body)
		}
		if files := recordFiles(t, dir); len(files) != 1 {
			t.Fatalf("retry wrote %d records, want 1", len(files))
		}
	}
	for i, stage := range stages {
		if first[stage] == 0 {
			t.Fatalf("no check of %d aborts %s (first aborts: %v)", checks, stage, first)
		}
		if i > 0 && first[stage] <= first[stages[i-1]] {
			t.Fatalf("checks out of order: %v", first)
		}
	}
	if first["during record write"] != checks {
		t.Fatalf("the last check (%d) is not the record write: %v", checks, first)
	}
}
