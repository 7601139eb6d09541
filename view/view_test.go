package view

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/graph"
)

func TestRingAllSymmetric(t *testing.T) {
	for n := 3; n <= 12; n++ {
		g := graph.Cycle(n)
		if !AllSymmetric(g) {
			t.Fatalf("ring-%d should have a single view class", n)
		}
		if ClassCount(g) != 1 {
			t.Fatalf("ring-%d class count %d", n, ClassCount(g))
		}
	}
}

func TestTorusAllSymmetric(t *testing.T) {
	if !AllSymmetric(graph.OrientedTorus(3, 5)) {
		t.Fatal("oriented torus should be fully symmetric")
	}
	if !AllSymmetric(graph.Hypercube(4)) {
		t.Fatal("hypercube should be fully symmetric")
	}
	if !AllSymmetric(graph.Complete(6)) {
		t.Fatal("canonical complete graph should be fully symmetric")
	}
}

func TestQhatAllSymmetric(t *testing.T) {
	// The paper: "the view of each node of Q̂h is identical, and hence all
	// pairs of nodes are symmetric."
	for h := 2; h <= 4; h++ {
		g, _ := graph.Qhat(h)
		if !AllSymmetric(g) {
			t.Fatalf("qhat-%d should be fully symmetric", h)
		}
	}
}

func TestPathClasses(t *testing.T) {
	// In path-5 (0-1-2-3-4): ends {0,4} symmetric, {1,3} symmetric, middle
	// alone. Note ports break the mirror symmetry for odd interior nodes:
	// node 1 has port 0 to the end and node 3 has port 0 toward... check
	// empirically against the EqualToDepth oracle instead of guessing.
	g := graph.Path(5)
	c := Classes(g)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			want := EqualToDepth(g, u, v, g.N()-1)
			got := c[u] == c[v]
			if want != got {
				t.Fatalf("path-5 symmetry mismatch (%d,%d): refinement=%v oracle=%v", u, v, got, want)
			}
		}
	}
}

func TestSymmetricTreeMirrors(t *testing.T) {
	shape := graph.FullShape(2, 2)
	g := graph.SymmetricTree(shape)
	for v := 0; v < g.N(); v++ {
		m := graph.SymmetricTreeMirror(shape, v)
		if !Symmetric(g, v, m) {
			t.Fatalf("mirror pair (%d,%d) not symmetric", v, m)
		}
	}
	// The two roots are symmetric but a root and a leaf are not.
	if Symmetric(g, 0, 1) {
		t.Fatal("root and child should not be symmetric")
	}
}

func TestStarAsymmetry(t *testing.T) {
	g := graph.Star(6)
	if Symmetric(g, 0, 1) {
		t.Fatal("center and leaf should differ")
	}
	// With the canonical labeling, leaf i hangs off center port i-1, so a
	// leaf's view records a distinct entry port at the center: every leaf
	// is in its own class. (Views are port-sensitive — this is the point.)
	if Symmetric(g, 1, 5) {
		t.Fatal("leaves on distinct center ports should NOT be symmetric")
	}
	if ClassCount(g) != 6 {
		t.Fatalf("star class count %d, want 6", ClassCount(g))
	}
}

func TestRefinementMatchesDepthOracle(t *testing.T) {
	// Property: on random graphs, partition refinement agrees with
	// truncated-view equality at depth n-1 (Norris' theorem).
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw%8)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g := graph.RandomConnected(n, extra, seed)
		c := Classes(g)
		for u := 0; u < n; u++ {
			for v := u; v < n; v++ {
				if (c[u] == c[v]) != EqualToDepth(g, u, v, n-1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedViewShape(t *testing.T) {
	g := graph.Cycle(4)
	tr := Truncated(g, 0, 2)
	root := tr.At(0)
	if root.Deg != 2 || root.EntryPort != -1 {
		t.Fatalf("root wrong: %+v", root)
	}
	rootKids := tr.KidsOf(0)
	if len(rootKids) != 2 {
		t.Fatalf("root kids %d", len(rootKids))
	}
	// Taking port 0 on the oriented ring enters the next node by port 1.
	kid := tr.At(rootKids[0])
	if kid.EntryPort != 1 || kid.Deg != 2 {
		t.Fatalf("kid wrong: %+v", kid)
	}
	// Depth-2 truncation: grandchildren were never expanded.
	grand := tr.At(tr.KidsOf(rootKids[0])[0])
	if grand.Kids != NoKids {
		t.Fatal("truncation depth not respected")
	}
}

func TestEncodeCanonical(t *testing.T) {
	g := graph.Cycle(6)
	a := Truncated(g, 0, 3).Encode()
	b := Truncated(g, 2, 3).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("symmetric nodes encoded differently")
	}
	p := graph.Path(4)
	x := Truncated(p, 0, 3).Encode()
	y := Truncated(p, 1, 3).Encode()
	if bytes.Equal(x, y) {
		t.Fatal("nonsymmetric nodes encoded equally")
	}
}

func TestEncodeMatchesEqual(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%6)
		g := graph.RandomConnected(n, 0, seed)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				tu, tv := Truncated(g, u, 3), Truncated(g, v, 3)
				if Equal(tu, tv) != bytes.Equal(tu.Encode(), tv.Encode()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualEmptyHandling(t *testing.T) {
	if !Equal(&Tree{}, &Tree{}) {
		t.Fatal("empty trees should be equal")
	}
	if Equal(&Tree{}, Truncated(graph.TwoNode(), 0, 1)) {
		t.Fatal("empty vs non-empty should differ")
	}
}

func TestViewEquivalenceIsPreservedBySamePort(t *testing.T) {
	// If u, v are symmetric then succ(u,p), succ(v,p) are symmetric — the
	// closure property the rendezvous proofs rely on.
	for _, g := range []*graph.Graph{
		graph.Cycle(8),
		graph.OrientedTorus(3, 3),
		graph.SymmetricTree(graph.ChainShape(2)),
	} {
		c := Classes(g)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if c[u] != c[v] {
					continue
				}
				for p := 0; p < g.Degree(u); p++ {
					tu, _ := g.Succ(u, p)
					tv, _ := g.Succ(v, p)
					if c[tu] != c[tv] {
						t.Fatalf("%s: class closure violated at (%d,%d) port %d", g, u, v, p)
					}
				}
			}
		}
	}
}

// EqualToDepth reports whether the views from u and v agree when truncated
// to the given depth. It runs in O(n^2 * depth) time via memoized pairwise
// comparison rather than materializing the (exponential) trees. It is the
// independent oracle the refinement and encoding tests check against.
func EqualToDepth(g *graph.Graph, u, v, depth int) bool {
	type key struct{ a, b, d int }
	memo := make(map[key]bool)
	var rec func(a, b, d int) bool
	rec = func(a, b, d int) bool {
		if g.Degree(a) != g.Degree(b) {
			return false
		}
		if a == b || d == 0 {
			return true
		}
		k := key{a, b, d}
		if r, ok := memo[k]; ok {
			return r
		}
		res := true
		for p := 0; p < g.Degree(a); p++ {
			ta, ea := g.Succ(a, p)
			tb, eb := g.Succ(b, p)
			if ea != eb || !rec(ta, tb, d-1) {
				res = false
				break
			}
		}
		memo[k] = res
		return res
	}
	return rec(u, v, depth)
}
