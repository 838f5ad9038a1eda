package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tally counts attempted and failed operations. A failed operation is one
// whose answer was wrong, errored, or came back non-2xx; the first few
// failures are described on standard error.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

const maxFailureNotes = 10

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	n := t.failed
	t.mu.Unlock()
	if n <= maxFailureNotes {
		fmt.Fprintf(os.Stderr, "kbench: FAILED: "+format+"\n", args...)
	}
}

// check records one operation: failed when problems is non-empty.
func (t *tally) check(what string, problems []string) {
	if len(problems) == 0 {
		t.ok()
		return
	}
	more := ""
	if len(problems) > 1 {
		more = fmt.Sprintf(" (and %d more)", len(problems)-1)
	}
	t.fail("%s: %s%s", what, problems[0], more)
}

// measureSetup runs a workload's set-up at least minSetups times and until
// setupBudget is spent, and returns the median time in seconds. The last
// set-up's state is what the run goes on with; teardown (may be nil) undoes
// each earlier one, untimed.
func measureSetup(setup, teardown func() error) (float64, error) {
	const (
		minSetups   = 9
		maxSetups   = 25
		setupBudget = 3 * time.Second
	)
	var times []float64
	start := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupBudget) {
		if len(times) > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocBytes returns the cumulative bytes allocated on the heap by the
// process. Reading it does not stop the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
