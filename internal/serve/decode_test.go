package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// fuzzBodyCap is the body cap of the server FuzzDecodeRequest drives.
const fuzzBodyCap = 4096

// requestTargets makes a fresh value of each request type decode fills.
var requestTargets = []func() any{
	func() any { return new(submission) },
	func() any { return new(pointstoRequest) },
	func() any { return new(cfiTargetsRequest) },
}

// referenceDecode is the json.Decoder path over a body without a usable
// Content-Length: what decode did for every body before the plain pass.
func referenceDecode(body []byte, limit int64, into any) *apiError {
	return decodeJSON(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit), into)
}

// checkDecode decodes body with its Content-Length set to length through
// decode, and through the reference path, into each request type, and
// fails unless both give the same value or the same error.
func checkDecode(t *testing.T, s *Server, body []byte, length int64) {
	t.Helper()
	for _, target := range requestTargets {
		got, want := target(), target()
		r := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body))
		r.ContentLength = length
		gotErr := s.decode(httptest.NewRecorder(), r, got)
		wantErr := referenceDecode(body, s.cfg.MaxBodyBytes, want)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%T from %q: decode error %v, reference error %v", got, body, gotErr, wantErr)
		case gotErr != nil && *gotErr != *wantErr:
			t.Fatalf("%T from %q: decode error %+v, reference error %+v", got, body, *gotErr, *wantErr)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%T from %q: decode gave %+v, reference %+v", got, body, got, want)
		}
	}
}

// FuzzDecodeRequest drives arbitrary bodies through decode and through the
// reference json.Decoder path, for all three request types: both must give
// the same value, or the same status, kind and message.
func FuzzDecodeRequest(f *testing.F) {
	small := "int g;\nint* pick() { return &g; }\nint main() { int* p; p = pick(); return *p < 3; }"
	for _, v := range []any{
		map[string]any{"source": small},
		map[string]any{"source": small, "config": "all", "name": "pick"},
		map[string]any{"source": small, "config": "pa-pwc", "fn": "main", "reg": "%t1"},
		map[string]any{"source": small, "site": 12},
		map[string]any{"source": "int* p; if (a < b && c > d) { p = &g; }"},
		map[string]any{"source": "\x00\x1f  \"quoted\" \\ / é 😀"},
	} {
		body, _ := json.Marshal(v)
		f.Add(body)
	}
	for _, body := range []string{
		`{"source":"x","sourcecode":"y"}`, `{"source":"x","parallel":true}`,
		`{"source":"a","source":"b"}`, `{"site":1,"site":2}`, `{"fn":"f","fn":"g","source":"x"}`,
		`{"Source":"x"}`, `{"SOURCE":"x"}`, `{"ſource":"x"}`, `{"Fn":"main","source":"x"}`, `{"source":"x"}`,
		`{"source":"😀"}`, `{"source":"\ud83d\ude00"}`, `{"source":"\ud83d"}`, `{"source":"\udc00x"}`, `{"source":"é<&￿"}`,
		"{\"source\":\"\xff\xfe\"}", "{\"source\":\"\xed\xa0\x80\"}", "{\"source\":\"caf\xc3\xa9\"}", "{\"source\":\"a\x01b\"}",
		`{"source":null}`, `{"site":null}`, `null`, `{"name":null,"source":"x"}`,
		`{"source":"x"} `, `{"source":"x"}garbage`, `{"source":"x"}{"source":"y"}`, ` {"source":"x"}` + "\n\t\r",
		`{"source":"x`, `{"source":"x"`, `{"source":`, `{`, ``, `   `, `{"source":"x\`, `{"source":"\u12`,
		`{"site":5}`, `{"site":-0}`, `{"site":01}`, `{"site":1.0}`, `{"site":1e3}`, `{"site":-}`,
		`{"site":99999999999999999999}`, `{"site":999999999999999999}`, `{"site":"5"}`, `{"site":5,}`,
		`{}`, `[]`, `"source"`, `{,}`, `{"source":"x",}`, `{"source":"x" "name":"y"}`, `{"source" : "x" , "config" : "all" }`,
		`{"source":"\/\b\f\n\r\t\"\\"}`, `{"source":"\x"}`, `{"source":"\u00"}`, `{"source":"\uzzzz"}`,
		`{"source":{"a":1}}`, `{"source":["x"]}`, `{"source":true}`, `{"source":1}`,
		strings.Repeat(" ", fuzzBodyCap) + `{"source":"x"}`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{MaxBodyBytes: fuzzBodyCap})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 2*fuzzBodyCap {
			return
		}
		checkDecode(t, s, body, int64(len(body)))
	})
}

// TestDecodeShortBody: a body that ends before its Content-Length decodes,
// or fails, as the decoder reading it directly does.
func TestDecodeShortBody(t *testing.T) {
	s := New(Config{MaxBodyBytes: fuzzBodyCap})
	for _, body := range []string{`{"source":"x"}`, `{"source":"x`, `  `, `7`, ``} {
		checkDecode(t, s, []byte(body), int64(len(body)+5))
	}
}

// TestDecodePlainAllocatesSourceOnce: the plain pass allocates each string
// field once, escaped or not, and leaves a non-plain body to the decoder
// untouched.
func TestDecodePlainAllocatesSourceOnce(t *testing.T) {
	body, _ := json.Marshal(submission{Source: "int* p;\nif (a < b && c > d) { p = &g; }"})
	var sub submission
	if allocs := testing.AllocsPerRun(10, func() {
		buf := bytes.Clone(body)
		if !decodePlain(buf, &sub) {
			t.Fatal("json.Marshal output is not in the plain form")
		}
	}); allocs != 2 { // the clone and the source
		t.Fatalf("%v allocations, want 2", allocs)
	}
	nonPlain := []byte(`{"source":"a\nb","Config":"all"}`)
	kept := bytes.Clone(nonPlain)
	if decodePlain(nonPlain, &submission{}) || !bytes.Equal(nonPlain, kept) {
		t.Fatalf("a body with a case-variant key passed or was rewritten: %q", nonPlain)
	}
}
