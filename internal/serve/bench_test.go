package serve

// In-process benchmarks of the daemon's two request paths, run with
// -benchmem: a cache hit on each analysis endpoint, and a new-program
// /analyze miss with a store, plus the miss's projection alone.
//
//	go test ./internal/serve -run '^$' -bench 'Serve(Hit|Miss)' -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchBody is a request body the benchmark rewinds between requests.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchWriter is a ResponseWriter that keeps only the status, so a
// benchmark counts what the server allocates and nothing a recorder does.
type benchWriter struct {
	h    http.Header
	code int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }

// benchClient posts bodies to one path of s through one reused request.
type benchClient struct {
	s    *Server
	req  *http.Request
	body benchBody
	w    benchWriter
}

func newBenchClient(s *Server, path string) *benchClient {
	c := &benchClient{s: s, w: benchWriter{h: http.Header{}}}
	c.req, _ = http.NewRequest(http.MethodPost, path, nil)
	c.req.Body = &c.body
	return c
}

// post sends payload and returns the response status.
func (c *benchClient) post(payload []byte) int {
	c.body.Reset(payload)
	c.req.ContentLength = int64(len(payload))
	c.w.code = 0
	c.s.ServeHTTP(&c.w, c.req)
	return c.w.Status()
}

// Status returns the written status (200 if none was written).
func (w *benchWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	s := New(Config{Metrics: telemetry.New(), CacheDir: b.TempDir()})
	if err := s.WaitWarm(context.Background()); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServeHit answers one solved program (ScaledProgram with 22
// units, a 7.3 KB body) from the cache on each analysis endpoint.
func BenchmarkServeHit(b *testing.B) {
	s := benchServer(b)
	src := workload.ScaledProgram(22, 22)
	sub := submission{Source: src, Config: "all"}
	body, _ := json.Marshal(sub)
	if code := newBenchClient(s, "/analyze").post(body); code != http.StatusOK {
		b.Fatalf("solve: status %d", code)
	}
	regs := s.cache.lookup(hashSource(src), invariant.All().Name()).snap.Regs
	mid := regs[len(regs)/2]
	pts, _ := json.Marshal(pointstoRequest{submission: sub, Fn: mid.Fn, Reg: mid.Reg})
	for _, ep := range []struct {
		path string
		body []byte
	}{
		{"/analyze", body},
		{"/pointsto", pts},
		{"/cfi-targets", body},
		{"/invariants", body},
	} {
		b.Run(ep.path[1:], func(b *testing.B) {
			c := newBenchClient(s, ep.path)
			b.SetBytes(int64(len(ep.body)))
			b.ReportAllocs()
			for b.Loop() {
				if code := c.post(ep.body); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}

// BenchmarkServeMiss measures a new-program /analyze miss under the full
// configuration with a store: compile, solve, project and the record
// write, over ScaledProgram with 3 to 34 units, each submission made new by
// a leading global. The project sub-benchmark projects the same 32 solved
// programs alone.
func BenchmarkServeMiss(b *testing.B) {
	var sources [][]byte // each body less its leading `{"source":"`
	var systems []*core.System
	for units := 3; units <= 34; units++ {
		src := workload.ScaledProgram(int64(units), units)
		body, _ := json.Marshal(submission{Source: src})
		sources = append(sources, body[len(`{"source":"`):])
		m, err := minic.Compile("scaled-"+strconv.Itoa(units), src)
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, core.Analyze(m, invariant.All()))
	}
	b.Run("analyze", func(b *testing.B) {
		c := newBenchClient(benchServer(b), "/analyze")
		var body []byte
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			body = append(append(strconv.AppendInt(append(body[:0], `{"source":"int pad`...), int64(i), 10), `;\n`...), sources[i%len(sources)]...)
			if code := c.post(body); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
			i++
		}
	})
	b.Run("project", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			sys := systems[i%len(systems)]
			if _, err := project(context.Background(), sys.Optimistic, sys.Fallback); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
