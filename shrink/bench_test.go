package shrink

import (
	"fmt"
	"testing"

	"repro/graph"
)

// BenchmarkShrink times Workspace.Value on a warm workspace, the call
// stic.Classifier makes. Rings and tori keep their offset under identical
// moves, so the search walks the whole pair orbit; symmetric trees and
// Q̂h reach the floor of 1 early.
func BenchmarkShrink(b *testing.B) {
	q3, _ := graph.Qhat(3)
	q7, info7 := graph.Qhat(7)
	cases := []struct {
		name       string
		g          *graph.Graph
		u, v, want int
	}{
		{"ring-16", graph.Cycle(16), 0, 8, 8},
		{"torus-5x5", graph.OrientedTorus(5, 5), 0, 12, 4},
		{"symtree-full22", graph.SymmetricTree(graph.FullShape(2, 2)), 3, 10, 1},
		{"qhat-3", q3, 0, 1, 1},
		{"qhat-7", q7, info7.Root, graph.QhatZ(q7, info7.Root, 3)[0], 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var ws Workspace
			ws.Value(c.g, c.u, c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := ws.Value(c.g, c.u, c.v); got != c.want {
					b.Fatalf("Shrink(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
				}
			}
		})
	}
}

func BenchmarkAllPairsDist(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			g := graph.Cycle(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AllPairsDist(g)
			}
		})
	}
}
