package cfi

import (
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

const src = `
struct ops { fn open; fn close; }
ops g;
int do_open(int* x) { return 1; }
int do_close(int* x) { return 2; }
int unused(int* x) { return 3; }
int main() {
  fn extra;
  int r;
  extra = &unused;
  g.open = &do_open;
  g.close = &do_close;
  r = g.open(null);
  r = r + g.close(null);
  return r;
}
`

func policy(t *testing.T) *Policy {
	t.Helper()
	m, err := minic.Compile("cfi", src)
	if err != nil {
		t.Fatal(err)
	}
	return PolicyFrom(pointsto.New(m, invariant.Config{}).Solve())
}

func TestPolicyFrom(t *testing.T) {
	p := policy(t)
	if len(p.Sites) != 2 {
		t.Fatalf("sites = %v", p.Sites)
	}
	if p.AddressTaken != 3 {
		t.Errorf("address-taken = %d, want 3", p.AddressTaken)
	}
	if !p.Permits(p.Sites[0], "do_open") {
		t.Errorf("site 0 denies do_open: %v", p.Targets[p.Sites[0]])
	}
	if p.Permits(p.Sites[0], "unused") {
		t.Error("site 0 permits unused")
	}
	if p.Permits(9999, "do_open") {
		t.Error("unknown site permits")
	}
}

func TestPolicyStats(t *testing.T) {
	p := policy(t)
	counts := p.TargetCounts()
	if len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if p.AvgTargets() != 1 {
		t.Errorf("avg = %v, want 1 (field-sensitive precision)", p.AvgTargets())
	}
	if p.MaxTargets() != 1 {
		t.Errorf("max = %v", p.MaxTargets())
	}
	empty := &Policy{Targets: map[int][]string{}}
	if empty.AvgTargets() != 0 || empty.MaxTargets() != 0 {
		t.Error("empty policy stats nonzero")
	}
}

// TestPolicyPermitsMatchesScan checks the binary search in Permits against
// a linear scan of the per-site list, on the optimistic and the baseline
// policy of each of the nine apps: every site against every address-taken
// function plus one name no function has.
func TestPolicyPermitsMatchesScan(t *testing.T) {
	scan := func(p *Policy, site int, target string) bool {
		for _, fn := range p.Targets[site] {
			if fn == target {
				return true
			}
		}
		return false
	}
	for _, app := range workload.Apps() {
		m := app.MustModule()
		names := append(m.AddressTakenFuncs(), "no such function")
		for _, cfg := range []invariant.Config{invariant.All(), {}} {
			p := PolicyFrom(pointsto.New(m, cfg).Solve())
			for _, site := range p.Sites {
				for _, fn := range names {
					if got, want := p.Permits(site, fn), scan(p, site, fn); got != want {
						t.Errorf("%s %s: Permits(#%d, %s) = %v, linear scan says %v",
							app.Name, cfg.Name(), site, fn, got, want)
					}
				}
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	p := policy(t)
	d := p.Describe()
	for _, want := range []string{"indirect callsites", "do_open", "do_close", "address-taken"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}
