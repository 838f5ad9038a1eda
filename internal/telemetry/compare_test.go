package telemetry

import (
	"strings"
	"testing"
	"time"
)

func snapshotPair() (Snapshot, Snapshot) {
	oldR := New()
	oldR.Counter("pops").Add(100)
	oldR.Counter("hits").Add(50)
	oldR.Gauge("nodes").Set(10)
	oldR.RecordSpan("solve", nil, time.Now(), 100*time.Millisecond)
	oldR.Histogram("lat").Observe(64)

	newR := New()
	newR.Counter("pops").Add(150) // +50% — a regression when watched
	newR.Counter("hits").Add(51)  // +2% — within threshold
	newR.Counter("fresh").Add(7)  // not in old snapshot
	newR.Gauge("nodes").Set(12)
	newR.RecordSpan("solve", nil, time.Now(), 101*time.Millisecond)
	newR.Histogram("lat").Observe(64)
	return oldR.Snapshot(), newR.Snapshot()
}

// TestCompareSnapshotsRegression checks watched counters past the threshold
// regress, within-threshold and unwatched growth does not, and instruments
// new to the current snapshot never regress (no baseline).
func TestCompareSnapshotsRegression(t *testing.T) {
	oldS, newS := snapshotPair()
	c := CompareSnapshots(oldS, newS, []string{"pops", "hits", "fresh"}, 0.10)
	regs := c.Regressions()
	if len(regs) != 1 || regs[0].Name != "pops" {
		t.Fatalf("regressions = %+v, want exactly [pops]", regs)
	}
	byName := map[string]Delta{}
	for _, d := range c.Deltas {
		if d.Kind == "counter" {
			byName[d.Name] = d
		}
	}
	if !byName["hits"].Watched || byName["hits"].Regressed {
		t.Errorf("hits = %+v, want watched but not regressed", byName["hits"])
	}
	if byName["fresh"].Regressed {
		t.Errorf("fresh has no baseline and must not regress: %+v", byName["fresh"])
	}
	if byName["pops"].Ratio() != 1.5 {
		t.Errorf("pops ratio = %v, want 1.5", byName["pops"].Ratio())
	}
}

// TestCompareSnapshotsUnwatched checks nothing regresses without a watch
// list, whatever the growth.
func TestCompareSnapshotsUnwatched(t *testing.T) {
	oldS, newS := snapshotPair()
	if regs := CompareSnapshots(oldS, newS, nil, 0.0).Regressions(); len(regs) != 0 {
		t.Errorf("unwatched comparison regressed: %+v", regs)
	}
}

// TestComparisonText checks the rendering covers every kind and flags the
// regression.
func TestComparisonText(t *testing.T) {
	oldS, newS := snapshotPair()
	text := CompareSnapshots(oldS, newS, []string{"pops"}, 0.10).Text()
	for _, want := range []string{
		"metrics comparison", "counter", "gauge", "timer", "histogram",
		"pops", "REGRESSION", "1 watched instrument(s) regressed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q in:\n%s", want, text)
		}
	}
	clean := CompareSnapshots(oldS, newS, []string{"hits"}, 0.10).Text()
	if !strings.Contains(clean, "no watched instrument regressed") {
		t.Errorf("clean comparison missing verdict:\n%s", clean)
	}
}
