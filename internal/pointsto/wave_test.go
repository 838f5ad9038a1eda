package pointsto

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/workload"
)

// TestTopoOrderLevels pins the ordering contract the wave solver relies on:
// topoOrder is a permutation of the representative nodes, and every copy/gep
// edge between representatives runs forward in the order unless it closes a
// residual cycle (the DFS breaks such cycles with a back edge, whose target
// must then reach its source). The name dates from when the order was also
// bracketed into levels.
func TestTopoOrderLevels(t *testing.T) {
	for _, app := range workload.Apps()[:6] {
		t.Run(app.Name, func(t *testing.T) {
			a := New(app.MustModule(), invariant.All())
			a.sccPass()
			order := a.topoOrder()

			reps := 0
			for n := range a.nodes {
				if a.find(n) == n {
					reps++
				}
			}
			if len(order) != reps {
				t.Fatalf("order has %d nodes, want %d representatives", len(order), reps)
			}
			pos := map[int]int{}
			for i, n := range order {
				if a.find(n) != n {
					t.Fatalf("order[%d] = %d is not a representative", i, n)
				}
				if _, dup := pos[n]; dup {
					t.Fatalf("node %d appears twice in order", n)
				}
				pos[n] = i
			}

			succ := map[int][]int{}
			for _, v := range order {
				for _, to := range a.copyTo[v] {
					succ[v] = append(succ[v], a.find(int(to)))
				}
				for _, e := range a.gepTo[v] {
					succ[v] = append(succ[v], a.find(int(e.to)))
				}
			}
			reaches := func(from, to int) bool {
				seen := map[int]bool{from: true}
				stack := []int{from}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if n == to {
						return true
					}
					for _, w := range succ[n] {
						if !seen[w] {
							seen[w] = true
							stack = append(stack, w)
						}
					}
				}
				return false
			}
			forward := 0
			for _, v := range order {
				for _, w := range succ[v] {
					switch {
					case w == v:
					case pos[w] > pos[v]:
						forward++
					case !reaches(w, v):
						t.Fatalf("edge %d(pos %d) -> %d(pos %d) runs backward without closing a cycle",
							v, pos[v], w, pos[w])
					}
				}
			}
			if forward == 0 {
				t.Error("no forward edges between representatives; test exercised nothing")
			}
		})
	}
}
