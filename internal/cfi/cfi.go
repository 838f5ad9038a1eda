// Package cfi generates forward-edge control-flow-integrity policies from
// pointer-analysis results (the paper's case study, §5). A policy assigns
// every indirect callsite the set of functions its function pointer may
// target according to one analysis; the optimistic and fallback policies
// become the two memory views.
package cfi

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pointsto"
)

// Policy is a CFI policy: permitted function targets per indirect callsite.
type Policy struct {
	Sites   []int            // indirect callsite instruction IDs, sorted
	Targets map[int][]string // per-site permitted functions, sorted
	// AddressTaken is the number of address-taken functions (the size of
	// the coarsest possible equivalence class).
	AddressTaken int
}

// PolicyFrom derives the CFI policy implied by a points-to result.
func PolicyFrom(r *pointsto.Result) *Policy {
	p := &Policy{Targets: map[int][]string{}}
	p.Sites = r.ICallSites()
	for _, site := range p.Sites {
		p.Targets[site] = r.CallTargets(site)
	}
	p.AddressTaken = len(r.Module().AddressTakenFuncs())
	return p
}

// TargetCounts returns the number of permitted targets per callsite, in
// callsite order (the series behind Figures 1, 11 and 12).
func (p *Policy) TargetCounts() []int {
	out := make([]int, len(p.Sites))
	for i, s := range p.Sites {
		out[i] = len(p.Targets[s])
	}
	return out
}

// AvgTargets returns the mean number of permitted targets per callsite
// (Figure 11's metric).
func (p *Policy) AvgTargets() float64 {
	counts := p.TargetCounts()
	if len(counts) == 0 {
		return 0
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	return float64(sum) / float64(len(counts))
}

// MaxTargets returns the largest per-callsite target count.
func (p *Policy) MaxTargets() int {
	max := 0
	for _, c := range p.TargetCounts() {
		if c > max {
			max = c
		}
	}
	return max
}

// Permits reports whether the policy allows target at site. A policy is
// read-only once built, so every execution of a hardened program shares it.
func (p *Policy) Permits(site int, target string) bool {
	ts := p.Targets[site]
	i := sort.SearchStrings(ts, target)
	return i < len(ts) && ts[i] == target
}

// Describe renders the policy for reports.
func (p *Policy) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CFI policy: %d indirect callsites, %d address-taken functions, avg %.2f targets/site\n",
		len(p.Sites), p.AddressTaken, p.AvgTargets())
	for _, site := range p.Sites {
		ts := append([]string(nil), p.Targets[site]...)
		sort.Strings(ts)
		fmt.Fprintf(&b, "  callsite #%d -> {%s}\n", site, strings.Join(ts, ", "))
	}
	return b.String()
}
