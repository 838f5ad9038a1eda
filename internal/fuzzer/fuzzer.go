// Package fuzzer implements the likely-invariant validation campaign of
// §7.3: a deterministic coverage-guided mutational fuzzer (standing in for
// AFL++) drives the hardened applications with mutated inputs, accumulates
// branch and monitor coverage, and records whether any likely invariant was
// violated.
package fuzzer

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/memview"
)

// Config controls a fuzzing campaign.
type Config struct {
	Iterations int   // number of executions (default 200)
	Seed       int64 // RNG seed (campaigns are deterministic)
	MaxLen     int   // maximum input length (default 160)
	Requests   int   // request count injected as the first input word (default 12)
}

// Report summarizes a campaign.
type Report struct {
	Execs         int
	CorpusSize    int
	BranchExec    int // distinct branch edges covered
	BranchTotal   int
	MonitorExec   int // distinct monitor sites executed
	MonitorTotal  int
	Violations    []memview.Violation
	Faults        int // runtime faults observed (not CFI)
	CFIViolations int
	NewCovInputs  int // inputs that increased coverage
	MergedTrace   *interp.Trace
}

// BranchCoverage returns the covered branch fraction.
func (r *Report) BranchCoverage() float64 {
	if r.BranchTotal == 0 {
		return 0
	}
	return float64(r.BranchExec) / float64(r.BranchTotal)
}

// Run fuzzes the hardened program's entry function starting from seeds.
func Run(h *core.Hardened, entry string, seeds [][]int64, cfg Config) *Report {
	if cfg.Iterations == 0 {
		cfg.Iterations = 200
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = 160
	}
	if cfg.Requests == 0 {
		cfg.Requests = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{}

	corpus := make([][]int64, 0, len(seeds)+32)
	for _, s := range seeds {
		corpus = append(corpus, append([]int64(nil), s...))
	}
	if len(corpus) == 0 {
		corpus = append(corpus, []int64{int64(cfg.Requests), 1, 2, 3})
	}

	var merged *interp.Trace
	// AFL-style coverage map: branch edge -> highest hit-count bucket seen,
	// plus indirect-call target keys.
	buckets := map[[2]int]int{}
	icallCov := map[string]bool{}

	execOne := func(input []int64) bool {
		e := h.NewExecution(false)
		tr := e.Run(entry, input)
		rep.Execs++
		switch tr.Err.(type) {
		case nil:
		case *interp.CFIViolation:
			rep.CFIViolations++
		default:
			rep.Faults++
		}
		rep.Violations = append(rep.Violations, e.Switcher.Violations()...)
		grew := false
		if merged == nil {
			merged = tr
		} else {
			beforeMonitors := merged.MonitorsExecuted()
			merged.Merge(tr)
			if merged.MonitorsExecuted() > beforeMonitors {
				grew = true
			}
		}
		for edge, b := range tr.BranchBuckets() {
			if b > buckets[edge] {
				buckets[edge] = b
				grew = true
			}
		}
		for site, targets := range tr.ICallObserved {
			for t := range targets {
				k := fmt.Sprintf("%d:%s", site, t)
				if !icallCov[k] {
					icallCov[k] = true
					grew = true
				}
			}
		}
		return grew
	}

	// Seed pass.
	for _, s := range corpus {
		execOne(s)
	}

	for i := 0; i < cfg.Iterations; i++ {
		parent := corpus[rng.Intn(len(corpus))]
		child := mutate(rng, parent, cfg.MaxLen)
		if execOne(child) {
			rep.NewCovInputs++
			corpus = append(corpus, child)
		}
	}

	rep.CorpusSize = len(corpus)
	rep.MergedTrace = merged
	rep.BranchExec, rep.BranchTotal = merged.BranchCoverage()
	rep.MonitorExec = merged.MonitorsExecuted()
	rep.MonitorTotal = h.MonitorSites()
	return rep
}

// mutate derives a child input from a parent with AFL-style operations.
func mutate(rng *rand.Rand, parent []int64, maxLen int) []int64 {
	child := append([]int64(nil), parent...)
	if len(child) == 0 {
		child = []int64{1}
	}
	nOps := 1 + rng.Intn(4)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(6) {
		case 0: // point replace
			child[rng.Intn(len(child))] = int64(rng.Intn(64))
		case 1: // arithmetic nudge
			p := rng.Intn(len(child))
			child[p] += int64(rng.Intn(7)) - 3
			if child[p] < 0 {
				child[p] = 0
			}
		case 2: // insert
			if len(child) < maxLen {
				p := rng.Intn(len(child) + 1)
				child = append(child[:p], append([]int64{int64(rng.Intn(48))}, child[p:]...)...)
			}
		case 3: // delete
			if len(child) > 1 {
				p := rng.Intn(len(child))
				child = append(child[:p], child[p+1:]...)
			}
		case 4: // duplicate tail segment
			if len(child) < maxLen-4 && len(child) >= 2 {
				seg := child[len(child)/2:]
				child = append(child, seg...)
			}
		case 5: // interesting values
			vals := []int64{0, 1, 3, 7, 8, 15, 31, 47}
			child[rng.Intn(len(child))] = vals[rng.Intn(len(vals))]
		}
	}
	if len(child) > maxLen {
		child = child[:maxLen]
	}
	return child
}
