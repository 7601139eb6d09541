package experiments

import (
	"fmt"
	"math/bits"

	"repro/graph"
	"repro/shrink"
	"repro/stic"
)

// E2 reproduces the worked examples after Definition 3.1: on an oriented
// torus Shrink(u,v) equals the distance for every pair, while on a
// symmetric tree Shrink is always 1 no matter how far apart the symmetric
// pair is ("Shrink can really shrink the initial distance"). Rings and
// hypercubes are included as additional translation-invariant families.
func E2() *Table {
	t := &Table{
		ID:       "E2",
		Title:    "Shrink(u,v) across graph families",
		PaperRef: "Definition 3.1 and the torus/symmetric-tree examples following it",
		Columns:  []string{"graph", "symmetric pairs", "max dist", "property", "holds"},
	}

	var ws shrink.Workspace
	checkAll := func(g *graph.Graph, dist [][]int32, property string, want func(u, v int) int) {
		pairs := stic.SymmetricPairs(g)
		maxD := 0
		ok := true
		for _, pr := range pairs {
			u, v := pr[0], pr[1]
			if d := int(dist[u][v]); d > maxD {
				maxD = d
			}
			if got := ws.Value(g, u, v); got != want(u, v) {
				ok = false
				t.Check(false, "%s: Shrink(%d,%d)=%d, want %d", g, u, v, got, want(u, v))
			}
		}
		t.AddRow(g.String(), len(pairs), maxD, property, ok)
	}

	for _, wh := range [][2]int{{3, 3}, {4, 3}, {5, 4}} {
		g := graph.OrientedTorus(wh[0], wh[1])
		d := shrink.AllPairsDist(g)
		checkAll(g, d, "Shrink = dist", func(u, v int) int { return int(d[u][v]) })
	}
	for _, n := range []int{4, 6, 9} {
		g := graph.Cycle(n)
		d := shrink.AllPairsDist(g)
		checkAll(g, d, "Shrink = dist", func(u, v int) int { return int(d[u][v]) })
	}
	for _, shape := range []graph.Shape{graph.ChainShape(2), graph.ChainShape(4), graph.FullShape(2, 2)} {
		g := graph.SymmetricTree(shape)
		size := shape.Size()
		mirror := func(v int) int { return graph.SymmetricTreeMirror(shape, v) }
		// Only mirror pairs are guaranteed Shrink 1; restrict the check.
		dist := shrink.AllPairsDist(g)
		ok := true
		maxD := 0
		count := 0
		for v := 0; v < size; v++ {
			m := mirror(v)
			count++
			if d := int(dist[v][m]); d > maxD {
				maxD = d
			}
			if got := ws.Value(g, v, m); got != 1 {
				ok = false
				t.Check(false, "%s: mirror Shrink(%d,%d)=%d, want 1", g, v, m, got)
			}
		}
		t.AddRow(g.String(), fmt.Sprintf("%d mirror", count), maxD, "Shrink = 1", ok)
	}
	{
		g := graph.Hypercube(4)
		checkAll(g, shrink.AllPairsDist(g), "Shrink = Hamming", func(u, v int) int { return bits.OnesCount(uint(u ^ v)) })
	}

	t.Notes = append(t.Notes,
		"Symmetric-tree rows show distance up to the diameter with Shrink pinned at 1: identical moves can funnel both agents to the central edge.",
		"Torus/ring/hypercube rows: identical moves preserve the offset, so no shrinking below the distance is possible.")
	return t
}
