package pointsto

import (
	"fmt"
	"testing"
)

// TestTarjan pins the shared SCC routine's contract: roots in id order,
// successors in edge order, self-loops ignored, filtered-out roots skipped,
// components in completion order with members in stack-pop order (the
// component's root last). Every case runs on one scratch, so reusing a
// scratch, grown or not, must not change a result.
func TestTarjan(t *testing.T) {
	var scratch tarjanScratch
	for _, tc := range []struct {
		name string
		adj  [][]int32
		skip map[int]bool // nodes root rejects
		want [][]int32
	}{
		{
			name: "dag",
			adj:  [][]int32{{1, 2}, {3}, {3}, {}},
			want: [][]int32{{3}, {1}, {2}, {0}},
		},
		{
			// 1<->2 nests inside 0->1->2->3->0; 4<->5 hangs off 3 and
			// completes first.
			name: "nested cycles",
			adj:  [][]int32{{1}, {2}, {1, 3}, {0, 4}, {5}, {4}},
			want: [][]int32{{5, 4}, {3, 2, 1, 0}},
		},
		{
			name: "self-loop",
			adj:  [][]int32{{0, 1}, {1}},
			want: [][]int32{{1}, {0}},
		},
		{
			// 2 is never a root; 0 is not a root either, but is still
			// visited as 1's successor.
			name: "filtered-out node",
			adj:  [][]int32{{1}, {0}, {0}, {}},
			skip: map[int]bool{0: true, 2: true},
			want: [][]int32{{0, 1}, {3}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [][]int32
			root := func(v int) bool { return !tc.skip[v] }
			succ := func(v, i int) (int, bool) {
				if i < len(tc.adj[v]) {
					return int(tc.adj[v][i]), true
				}
				return 0, false
			}
			tarjan(&scratch, len(tc.adj), root, succ, func(scc []int32) {
				got = append(got, append([]int32(nil), scc...))
			})
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("components = %v, want %v", got, tc.want)
			}
		})
	}
}
