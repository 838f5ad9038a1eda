package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

func smallRun(t *testing.T) options {
	t.Helper()
	return options{seed: 3, run: 300 * time.Millisecond, workdir: t.TempDir(), small: true}
}

func checkRun(t *testing.T, name string, o options, wantFailed int64) {
	t.Helper()
	rep, err := workloads[name](o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	line, err := resultFor(rep, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if line.Failed != wantFailed || line.Correct != (wantFailed == 0) || line.Attempted < 20 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d, want %d failed", name, line.Correct, line.Attempted, line.Failed, wantFailed)
	}
	for _, d := range endToEnd {
		if line.Metrics[d.name].Value <= 0 {
			t.Errorf("%s: %s = %v, want a positive measurement", name, d.name, line.Metrics[d.name].Value)
		}
	}
}

// TestWorkloadsCorrect runs every workload at test size: each answer passes
// its oracle and every end-to-end metric is measured.
func TestWorkloadsCorrect(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) { checkRun(t, name, smallRun(t), 0) })
	}
}

// TestAlteredAnswerFails feeds one deliberately altered answer to each
// workload's oracle and expects exactly that operation counted as failed.
func TestAlteredAnswerFails(t *testing.T) {
	t.Run("analyze-30k", func(t *testing.T) {
		o, done := smallRun(t), false
		o.tamperAnalysis = func(v *views) {
			if done {
				return
			}
			done = true
			var ptrs []pointsto.PtrRef
			for p, sets := range v.ptrs {
				if len(sets[0]) > 0 {
					ptrs = append(ptrs, p)
				}
			}
			sort.Slice(ptrs, func(i, j int) bool { return ptrs[i].Fn+ptrs[i].Reg < ptrs[j].Fn+ptrs[j].Reg })
			sets := v.ptrs[ptrs[0]]
			sets[0] = sets[0][1:] // drop one object from a fallback set
			v.ptrs[ptrs[0]] = sets
		}
		checkRun(t, "analyze-30k", o, 1)
	})
	t.Run("exec-hardened", func(t *testing.T) {
		o, done := smallRun(t), false
		o.tamperExec = func(a *execAnswer) {
			if !done {
				done = true
				a.Result++
			}
		}
		checkRun(t, "exec-hardened", o, 1)
	})
	t.Run("serve-mix", func(t *testing.T) {
		o, done := smallRun(t), false
		o.tamperServe = func(endpoint string, body []byte) []byte {
			if done || endpoint != "/analyze" {
				return body
			}
			done = true
			if bytes.Contains(body, []byte(`"cached": true`)) {
				return bytes.Replace(body, []byte(`"cached": true`), []byte(`"cached": false`), 1)
			}
			return bytes.Replace(body, []byte(`"cached": false`), []byte(`"cached": true`), 1)
		}
		checkRun(t, "serve-mix", o, 1)
	})
}

// TestNoExecutionHints keeps the benchmark on the surface the planned
// deletions keep: no solver execution hints, no runner cache, and the daemon
// driven only over HTTP with deployment settings.
func TestNoExecutionHints(t *testing.T) {
	forbidden := regexp.MustCompile(`SetIntern|SetParallel|SetPrep|SetDelta|SetDefault|runner\.|ComputeOpts|Parallel:|Intern:|"parallel"|"intern"`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := forbidden.FindString(line); m != "" {
				t.Errorf("%s:%d uses %s", f, i+1, m)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not run by the program", w.Name)
		}
	}
	same := func(kind string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, layerMetrics)
}

// TestSeedsChangeInputsNotWork: analyze-30k's seed changes the program, not
// the amount of work, so a claim can be re-checked on a held-out seed.
func TestSeedsChangeInputsNotWork(t *testing.T) {
	if testing.Short() {
		t.Skip("solves three ~30k-node programs")
	}
	var first pointsto.Stats
	var firstNodes int
	for seed := int64(1); seed <= 3; seed++ {
		src := workload.ScaledProgram(seed, analyzeUnits)
		h, err := analyzeDefault(job{name: "seed", src: src, cfg: invariant.All()})
		if err != nil {
			t.Fatal(err)
		}
		if seed > 1 && src == workload.ScaledProgram(1, analyzeUnits) {
			t.Fatalf("seed %d gives the same program as seed 1", seed)
		}
		nodes, st := h.Sys.Fallback.NodeCount(), h.Sys.Fallback.Stats()
		t.Logf("seed %d: %d nodes, %d pops, %d bits, %d SCC passes, %d prep merges",
			seed, nodes, st.Iterations, st.BitsPropagated, st.SCCPasses, st.PrepMerged)
		if seed == 1 {
			first, firstNodes = st, nodes
			continue
		}
		if nodes != firstNodes {
			t.Errorf("seed %d: %d constraint nodes, seed 1 has %d", seed, nodes, firstNodes)
		}
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"worklist pops", st.Iterations, first.Iterations},
			{"bits propagated", st.BitsPropagated, first.BitsPropagated},
		} {
			if d := float64(c.got-c.want) / float64(c.want); d > 0.1 || d < -0.1 {
				t.Errorf("seed %d: %s %d, seed 1 has %d (more than 10%% apart)", seed, c.name, c.got, c.want)
			}
		}
	}
}
