package shrink

import (
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"

	"repro/graph"
	"repro/internal/simtest"
	"repro/view"
)

func mustShrink(t *testing.T, g *graph.Graph, u, v int) Result {
	t.Helper()
	r, err := Shrink(g, u, v)
	if err != nil {
		t.Fatalf("Shrink(%s, %d, %d): %v", g, u, v, err)
	}
	return r
}

func TestTwoNode(t *testing.T) {
	g := graph.TwoNode()
	r := mustShrink(t, g, 0, 1)
	if r.Value != 1 {
		t.Fatalf("Shrink on K2 = %d, want 1", r.Value)
	}
}

func TestRingShrinkEqualsDistance(t *testing.T) {
	// Oriented rings behave like the paper's oriented torus example:
	// identical moves preserve the offset, so Shrink(u,v) = dist(u,v).
	for _, n := range []int{3, 4, 5, 8, 11} {
		g := graph.Cycle(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				r := mustShrink(t, g, u, v)
				if r.Value != g.Dist(u, v) {
					t.Fatalf("ring-%d Shrink(%d,%d)=%d, dist=%d", n, u, v, r.Value, g.Dist(u, v))
				}
			}
		}
	}
}

func TestOrientedTorusShrinkEqualsDistance(t *testing.T) {
	// The paper's first worked example after Definition 3.1: in an
	// oriented torus, Shrink(u,v) = dist(u,v) for any pair.
	g := graph.OrientedTorus(4, 5)
	dist := AllPairsDist(g)
	var ws Workspace
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if got := ws.Value(g, u, v); got != int(dist[u][v]) {
				t.Fatalf("torus Shrink(%d,%d)=%d, dist=%d", u, v, got, dist[u][v])
			}
		}
	}
}

func TestSymmetricTreeShrinkIsOne(t *testing.T) {
	// The paper's second worked example: in a symmetric tree (central edge
	// with port-preserving isomorphic halves), Shrink(u,v) = 1 for every
	// symmetric pair, although distances can be arbitrarily large.
	for _, shape := range []graph.Shape{
		graph.ChainShape(1), graph.ChainShape(3),
		graph.FullShape(2, 2), graph.FullShape(3, 1),
	} {
		g := graph.SymmetricTree(shape)
		for v := 0; v < shape.Size(); v++ {
			m := graph.SymmetricTreeMirror(shape, v)
			r := mustShrink(t, g, v, m)
			if r.Value != 1 {
				t.Fatalf("symtree-%s Shrink(%d,%d)=%d, want 1 (dist=%d)", shape, v, m, r.Value, g.Dist(v, m))
			}
		}
	}
}

func TestSymmetricTreeShrinkShrinksDistance(t *testing.T) {
	// Deep mirror pairs are far apart yet Shrink is 1 — "Shrink can really
	// shrink the initial distance".
	shape := graph.ChainShape(5)
	g := graph.SymmetricTree(shape)
	deepest := shape.Size() - 1
	m := graph.SymmetricTreeMirror(shape, deepest)
	if d := g.Dist(deepest, m); d != 11 {
		t.Fatalf("deep mirror distance %d, want 11", d)
	}
	r := mustShrink(t, g, deepest, m)
	if r.Value != 1 {
		t.Fatalf("deep mirror Shrink = %d", r.Value)
	}
}

func TestHypercubeShrinkEqualsHamming(t *testing.T) {
	// Port i flips bit i at both endpoints, so u XOR v is invariant under
	// identical moves: Shrink = Hamming distance.
	g := graph.Hypercube(4)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			r := mustShrink(t, g, u, v)
			if want := bits.OnesCount(uint(u ^ v)); r.Value != want {
				t.Fatalf("hypercube Shrink(%d,%d)=%d, want %d", u, v, r.Value, want)
			}
		}
	}
}

func TestCompleteShrinkIsOne(t *testing.T) {
	// In the canonical K_n labeling, port p maps x to x+1+p mod n: the
	// difference is invariant but every pair is already at distance 1.
	g := graph.Complete(7)
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			if r := mustShrink(t, g, u, v); r.Value != 1 {
				t.Fatalf("K7 Shrink(%d,%d)=%d", u, v, r.Value)
			}
		}
	}
}

func TestQhatShrinkOfZPairs(t *testing.T) {
	// For the lower-bound STICs [(r, v), D] with v in Z, the pair is
	// symmetric at distance D and 1 <= Shrink(r, v) <= D, so the STIC with
	// delay D is feasible (the theorem's premise). Note Shrink can be
	// strictly below D: walks that reach the leaf cycles distort the γγ
	// offset, which is allowed — feasibility only needs Shrink <= δ.
	k := 1
	D := 2 * k
	g, info := graph.Qhat(2 * D)
	for _, v := range graph.QhatZ(g, info.Root, k) {
		if d := g.Dist(info.Root, v); d != D {
			t.Fatalf("Z node %d at distance %d, want %d", v, d, D)
		}
		r := mustShrink(t, g, info.Root, v)
		if r.Value < 1 || r.Value > D {
			t.Fatalf("qhat Shrink(root,%d)=%d, want within [1,%d]", v, r.Value, D)
		}
	}
}

func TestShrinkRejectsNonsymmetric(t *testing.T) {
	g := graph.Path(4)
	if _, err := Shrink(g, 0, 1); err == nil {
		t.Fatal("expected ErrNotSymmetric")
	} else if _, ok := err.(ErrNotSymmetric); !ok {
		t.Fatalf("wrong error type: %v", err)
	}
}

func TestWitnessIsValid(t *testing.T) {
	// The witness α must satisfy dist(α(u), α(v)) == Value.
	check := func(g *graph.Graph, u, v int) {
		r := mustShrink(t, g, u, v)
		au, err := simtest.Apply(g, u, r.Alpha)
		if err != nil {
			t.Fatalf("%s: witness invalid at u: %v", g, err)
		}
		av, err := simtest.Apply(g, v, r.Alpha)
		if err != nil {
			t.Fatalf("%s: witness invalid at v: %v", g, err)
		}
		if au != r.AU || av != r.AV {
			t.Fatalf("%s: witness endpoints mismatch", g)
		}
		if g.Dist(au, av) != r.Value {
			t.Fatalf("%s: witness achieves %d, reported %d", g, g.Dist(au, av), r.Value)
		}
	}
	shape := graph.FullShape(2, 2)
	g := graph.SymmetricTree(shape)
	check(g, 3, graph.SymmetricTreeMirror(shape, 3))
	check(graph.Cycle(9), 2, 7)
	check(graph.OrientedTorus(3, 4), 0, 7)
}

func TestShrinkPositiveForDistinctSymmetric(t *testing.T) {
	// Two distinct symmetric agents can never be brought to distance 0 by
	// identical moves (otherwise simultaneous-start rendezvous would be
	// possible, contradicting the paper's impossibility argument). The
	// live search stops at distance 1 for u != v on the strength of this
	// premise, so it cannot see a later 0; the premise is checked on
	// shrinkBFS, which searches on until 0 or the end of the pair orbit.
	positive := func(g *graph.Graph) bool {
		dist := bfsMatrix(g)
		c := view.Classes(g)
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				if c[u] == c[v] && shrinkBFS(g, u, v, dist).Value < 1 {
					t.Errorf("%s: reference Shrink(%d,%d) < 1", g, u, v)
					return false
				}
			}
		}
		return true
	}
	for _, g := range append(e2Families(), qhat(2), qhat(3)) {
		positive(g)
	}
	f := func(seed uint64, nRaw uint8) bool {
		n := 3 + int(nRaw%8)
		extra := int(seed % 3)
		if maxExtra := n*(n-1)/2 - (n - 1); extra > maxExtra {
			extra = maxExtra
		}
		return positive(graph.RandomConnected(n, extra, seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkQhatAllocBound(t *testing.T) {
	// The search keeps one map entry per pair it visits before reaching
	// distance 1, so Shrink on Q̂7 (n = 4373) allocates nowhere near one
	// n²-entry table (19M entries).
	g, info := graph.Qhat(7)
	var z []int
	for k := 1; 2*k <= 7; k++ {
		z = append(z, graph.QhatZ(g, info.Root, k)...)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, v := range z {
		if r := mustShrink(t, g, info.Root, v); r.Value != 1 {
			t.Fatalf("Q̂7 Shrink(root,%d) = %d, want 1", v, r.Value)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("Shrink on %d Z pairs of Q̂7 allocated %d bytes, want under 16 MiB", len(z), grew)
	}
}
