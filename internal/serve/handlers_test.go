package serve

// Edge-case coverage for the HTTP surface: oversized bodies, malformed
// JSON, programs that do not compile, unknown configs/fields/paths/methods,
// and request-shape validation — every failure must be a typed JSON error
// with the documented status code.

import (
	"net/http"
	"strings"
	"testing"
)

func TestOversizedBodyRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := strings.Repeat("int g;\n", 200)
	status, body, _ := post(t, ts, "/analyze", map[string]any{"source": big})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %v", status, body)
	}
	if body["kind"] != "oversized" {
		t.Fatalf("error kind %v, want oversized", body["kind"])
	}
	if got := counter(s, "serve/errors/oversized"); got != 1 {
		t.Fatalf("serve/errors/oversized = %d, want 1", got)
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestUnknownFieldRejected covers a typo and the retired solver hints
// ("parallel", "intern"), which strict decoding rejects like any other
// unknown field.
func TestUnknownFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []map[string]any{
		{"source": demoSource, "sourcecode": "typo"},
		{"source": demoSource, "parallel": true},
		{"source": demoSource, "intern": true},
	} {
		status, body, _ := post(t, ts, "/analyze", req)
		if status != http.StatusBadRequest || body["kind"] != "validation" {
			t.Fatalf("unknown field in %v: status %d kind %v, want 400/validation", req, status, body["kind"])
		}
	}
}

func TestMalformedMiniCRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/analyze",
		map[string]any{"name": "broken", "source": "int main( { return ; }"})
	if status != http.StatusBadRequest || body["kind"] != "validation" {
		t.Fatalf("malformed MiniC: status %d kind %v, want 400/validation", status, body["kind"])
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "does not compile") {
		t.Fatalf("compile error not surfaced: %v", body["error"])
	}
	if got := counter(s, "serve/errors/compile"); got != 1 {
		t.Fatalf("serve/errors/compile = %d, want 1", got)
	}
	// A broken program must not consume a solve slot or an analysis.
	if got := counter(s, "core/analyses"); got != 0 {
		t.Fatalf("broken program ran %d analyses", got)
	}
	if got := counter(s, "serve/admission/admitted"); got != 0 {
		t.Fatalf("broken program was admitted %d times", got)
	}
}

func TestMissingSourceRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/analyze", map[string]any{"name": "empty"})
	if status != http.StatusBadRequest || body["kind"] != "validation" {
		t.Fatalf("missing source: status %d kind %v", status, body["kind"])
	}
}

func TestUnknownConfigRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/analyze",
		map[string]any{"source": demoSource, "config": "turbo"})
	if status != http.StatusBadRequest || body["kind"] != "validation" {
		t.Fatalf("unknown config: status %d kind %v", status, body["kind"])
	}
}

func TestPointsToRequiresFn(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/pointsto", map[string]any{"source": demoSource})
	if status != http.StatusBadRequest || body["kind"] != "validation" {
		t.Fatalf("missing fn: status %d kind %v", status, body["kind"])
	}
}

func TestCFITargetsUnknownSiteRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/cfi-targets",
		map[string]any{"source": demoSource, "site": 999999})
	if status != http.StatusBadRequest || body["kind"] != "validation" {
		t.Fatalf("unknown site: status %d kind %v", status, body["kind"])
	}
}

func TestWrongMethodGets405(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze: status %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != "POST" {
		t.Fatalf("Allow header = %q, want POST", resp.Header.Get("Allow"))
	}
	status, body, _ := post(t, ts, "/healthz", map[string]any{})
	if status != http.StatusMethodNotAllowed || body["kind"] != "method" {
		t.Fatalf("POST /healthz: status %d kind %v, want 405/method", status, body["kind"])
	}
}

func TestUnknownPathGetsJSON404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts, "/slice")
	if status != http.StatusNotFound || body["kind"] != "not-found" {
		t.Fatalf("unknown path: status %d kind %v, want 404/not-found", status, body["kind"])
	}
}

// TestProgramEviction fills the content-hash cache past its cap and checks
// the oldest program is forgotten across both cache layers, then
// re-admitted as a fresh solve.
func TestProgramEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxPrograms: 2})
	for i := 0; i < 3; i++ {
		if status, body, _ := post(t, ts, "/analyze",
			map[string]any{"source": variantSource(i), "config": "baseline"}); status != 200 {
			t.Fatalf("submission %d: %d %v", i, status, body)
		}
	}
	if got := counter(s, "serve/cache/programs-evicted"); got != 1 {
		t.Fatalf("programs evicted = %d, want 1", got)
	}
	if programs, flights := cacheSize(s.cache); programs != 2 || flights != 2 {
		t.Fatalf("cache holds %d programs / %d flights, want 2 / 2 (the victim's slot gone)", programs, flights)
	}
	// The evicted program re-solves rather than hitting the cache.
	solves := counter(s, "core/analyses")
	status, body, _ := post(t, ts, "/analyze",
		map[string]any{"source": variantSource(0), "config": "baseline"})
	if status != 200 || body["cached"] != false {
		t.Fatalf("evicted program: status %d cached=%v, want 200/false", status, body["cached"])
	}
	if got := counter(s, "core/analyses"); got != solves+1 {
		t.Fatalf("evicted program did not re-solve (%d -> %d)", solves, got)
	}
}
