package shrink

import (
	"fmt"
	"slices"
	"testing"

	"repro/graph"
	"repro/view"
)

// shrinkBFS is the reference the live search is pinned to: a pair-product
// BFS that stops only at distance 0 (so for u != v it walks the whole pair
// orbit), with n²-entry visited and parent slices and distances read from
// dist, where dist[x] = g.BFS(x). Like the live search it keeps BFS
// discovery order and replaces the best pair only on a strictly smaller
// distance, so both report the same witness.
func shrinkBFS(g *graph.Graph, u, v int, dist [][]int) Result {
	n := g.N()
	// parent[state] encodes the BFS tree for witness reconstruction:
	// state = a*n + b; parent value = prevState*maxDeg + port, or -1.
	seen := make([]bool, n*n)
	parent := make([]int64, n*n)
	for i := range parent {
		parent[i] = -1
	}
	maxDeg := int64(g.MaxDegree())
	start := u*n + v
	seen[start] = true
	queue := []int{start}
	best := Result{Value: dist[u][v], AU: u, AV: v}
	bestState := start
	for len(queue) > 0 && best.Value > 0 {
		s := queue[0]
		queue = queue[1:]
		a, b := s/n, s%n
		if g.Degree(a) != g.Degree(b) {
			panic(fmt.Sprintf("shrinkBFS: degree mismatch at pair (%d,%d); input pair not symmetric", a, b))
		}
		for p := 0; p < g.Degree(a); p++ {
			ta, _ := g.Succ(a, p)
			tb, _ := g.Succ(b, p)
			ns := ta*n + tb
			if seen[ns] {
				continue
			}
			seen[ns] = true
			parent[ns] = int64(s)*maxDeg + int64(p)
			if dist[ta][tb] < best.Value {
				best = Result{Value: dist[ta][tb], AU: ta, AV: tb}
				bestState = ns
				if best.Value == 0 {
					break
				}
			}
			queue = append(queue, ns)
		}
	}
	var rev []int
	for s := bestState; parent[s] >= 0; {
		enc := parent[s]
		rev = append(rev, int(enc%maxDeg))
		s = int(enc / maxDeg)
	}
	alpha := make([]int, len(rev))
	for i := range rev {
		alpha[i] = rev[len(rev)-1-i]
	}
	best.Alpha = alpha
	return best
}

// bfsMatrix returns the distance matrix shrinkBFS reads: row x is g.BFS(x).
func bfsMatrix(g *graph.Graph) [][]int {
	dist := make([][]int, g.N())
	for x := range dist {
		dist[x] = g.BFS(x)
	}
	return dist
}

// e2Families returns the graphs experiment E2 checks Shrink on.
func e2Families() []*graph.Graph {
	return []*graph.Graph{
		graph.OrientedTorus(3, 3), graph.OrientedTorus(4, 3), graph.OrientedTorus(5, 4),
		graph.Cycle(4), graph.Cycle(6), graph.Cycle(9),
		graph.SymmetricTree(graph.ChainShape(2)),
		graph.SymmetricTree(graph.ChainShape(4)),
		graph.SymmetricTree(graph.FullShape(2, 2)),
		graph.Hypercube(4),
	}
}

func qhat(h int) *graph.Graph {
	g, _ := graph.Qhat(h)
	return g
}

// TestSearchMatchesReference pins Shrink's value and witness, and
// Workspace.Value, to shrinkBFS on every ordered symmetric pair (u = v
// included) of 200 random graphs, the E2 families, K6 and Q̂3. One
// Workspace serves graphs of every size in turn, so a buffer that keeps
// state from an earlier graph shows.
func TestSearchMatchesReference(t *testing.T) {
	graphs := append(e2Families(), graph.Complete(6), qhat(3))
	for i := range 200 {
		n := 3 + i%10
		extra := min(i%4, n*(n-1)/2-(n-1))
		graphs = append(graphs, graph.RandomConnected(n, extra, uint64(i)))
	}
	var ws Workspace
	pairs := 0
	for _, g := range graphs {
		dist := bfsMatrix(g)
		classes := view.Classes(g)
		for u := range g.N() {
			for v := range g.N() {
				if classes[u] != classes[v] {
					continue
				}
				want := shrinkBFS(g, u, v, dist)
				got := mustShrink(t, g, u, v)
				if got.Value != want.Value || got.AU != want.AU || got.AV != want.AV || !slices.Equal(got.Alpha, want.Alpha) {
					t.Fatalf("%s (%d,%d): Shrink = %+v, reference %+v", g, u, v, got, want)
				}
				if val := ws.Value(g, u, v); val != want.Value {
					t.Fatalf("%s (%d,%d): Workspace.Value = %d, reference %d", g, u, v, val, want.Value)
				}
				pairs++
			}
		}
	}
	if pairs < 5000 {
		t.Fatalf("suite too small: only %d ordered symmetric pairs", pairs)
	}
}
