package serve

// A byte-level pin of everything the daemon writes for a fixed program
// set: the persisted record payloads and the response bodies of the three
// query endpoints. TestSnapshotDifferential compares two solves of the same
// code; this test compares against digests stored in testdata, so a change
// in table order, label rendering or response encoding fails it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var updateServeBytes = flag.Bool("update-serve-bytes", false, "rewrite testdata/serve_bytes.golden with current output")

// goldenPrograms is the program set of TestServeBytesGolden: the nine
// paper apps, ScaledProgram with 3, 10 and 34 units, and randprog-1k.
func goldenPrograms() (names, sources []string) {
	for _, app := range workload.Apps() {
		names, sources = append(names, app.Name), append(sources, app.Source)
	}
	for _, units := range []int{3, 10, 34} {
		names = append(names, fmt.Sprintf("scaled-%d", units))
		sources = append(sources, workload.ScaledProgram(int64(units), units))
	}
	return append(names, "randprog-1k"), append(sources, workload.ScaledApps()[0].Source)
}

// TestServeBytesGolden drives one daemon with a store over the golden
// program set under all, baseline and pa-pwc, and digests per (program,
// config): the record payload on disk, the /analyze miss and hit bodies,
// the /pointsto bodies of a sample of the record's pointers plus one
// unknown pointer, and the /cfi-targets bodies of the whole program and of
// its first site. Regenerate with:
//
//	go test ./internal/serve -run TestServeBytesGolden -update-serve-bytes
func TestServeBytesGolden(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Metrics: telemetry.New(), CacheDir: dir})
	waitWarm(t, s)
	store, err := persist.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	call := func(path string, body any) []byte {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return append([]byte(fmt.Sprintf("%d\n", rec.Code)), rec.Body.Bytes()...)
	}
	var out strings.Builder
	digest := func(prog, cfg, artifact string, data []byte) {
		sum := sha256.Sum256(data)
		fmt.Fprintf(&out, "%s %s %s %s\n", prog, cfg, artifact, hex.EncodeToString(sum[:]))
	}
	names, sources := goldenPrograms()
	for i, name := range names {
		src := sources[i]
		for _, cfg := range []string{"all", "baseline", "pa-pwc"} {
			sub := map[string]any{"name": name, "source": src, "config": cfg}
			miss, hit := call("/analyze", sub), call("/analyze", sub)
			if !bytes.Contains(miss, []byte(`"cached": false`)) || !bytes.Contains(hit, []byte(`"cached": true`)) {
				t.Fatalf("%s/%s: want a miss then a hit:\n%s\n%s", name, cfg, miss, hit)
			}
			digest(name, cfg, "analyze-miss", miss)
			digest(name, cfg, "analyze-hit", hit)

			var analyzed struct{ Config string }
			if err := json.Unmarshal(bytes.SplitN(call("/analyze", sub), []byte("\n"), 2)[1], &analyzed); err != nil {
				t.Fatal(err)
			}
			payload, err := store.Load(persistKey(hashSource(src), analyzed.Config))
			if err != nil {
				t.Fatalf("%s/%s: record: %v", name, cfg, err)
			}
			digest(name, cfg, "record", payload)
			var rec persistRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatal(err)
			}

			var pts []byte
			regs := rec.Snapshot.Regs
			step := len(regs)/48 + 1
			for k := 0; k < len(regs); k += step {
				pts = append(pts, call("/pointsto", map[string]any{"source": src, "config": cfg, "fn": regs[k].Fn, "reg": regs[k].Reg})...)
			}
			pts = append(pts, call("/pointsto", map[string]any{"source": src, "config": cfg, "fn": "main", "reg": "%no.such.reg"})...)
			digest(name, cfg, "pointsto", pts)

			cfi := call("/cfi-targets", map[string]any{"source": src, "config": cfg})
			if sites := rec.Snapshot.CFISites; len(sites) > 0 {
				cfi = append(cfi, call("/cfi-targets", map[string]any{"source": src, "config": cfg, "site": sites[0].Site})...)
			}
			digest(name, cfg, "cfi-targets", cfi)
		}
	}
	const golden = "testdata/serve_bytes.golden"
	if *updateServeBytes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-serve-bytes): %v", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(out.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, golden has %d", len(gotLines), len(wantLines))
	}
	for k := range wantLines {
		if wantLines[k] != gotLines[k] {
			t.Errorf("digest differs:\n got %s\nwant %s", gotLines[k], wantLines[k])
		}
	}
}
