package graph

import (
	"testing"
	"testing/quick"
)

func TestTwoNode(t *testing.T) {
	g := TwoNode()
	if g.N() != 2 || g.Edges() != 1 {
		t.Fatalf("K2 wrong shape: n=%d m=%d", g.N(), g.Edges())
	}
	to, ep := g.Succ(0, 0)
	if to != 1 || ep != 0 {
		t.Fatalf("K2 succ(0,0) = (%d,%d)", to, ep)
	}
}

func TestPathStructure(t *testing.T) {
	for n := 2; n <= 12; n++ {
		g := Path(n)
		if g.N() != n || g.Edges() != n-1 {
			t.Fatalf("path-%d wrong shape", n)
		}
		if g.Degree(0) != 1 || g.Degree(n-1) != 1 {
			t.Fatalf("path-%d endpoints not degree 1", n)
		}
		for v := 1; v < n-1; v++ {
			if g.Degree(v) != 2 {
				t.Fatalf("path-%d interior node %d degree %d", n, v, g.Degree(v))
			}
		}
		if g.Dist(0, n-1) != n-1 {
			t.Fatalf("path-%d endpoint distance %d", n, g.Dist(0, n-1))
		}
	}
}

func TestCycleOrientation(t *testing.T) {
	for n := 3; n <= 15; n++ {
		g := Cycle(n)
		reg, d := g.IsRegular()
		if !reg || d != 2 {
			t.Fatalf("ring-%d not 2-regular", n)
		}
		// Following port 0 repeatedly must walk the whole ring.
		cur := 0
		for i := 0; i < n; i++ {
			to, ep := g.Succ(cur, 0)
			if ep != 1 {
				t.Fatalf("ring-%d: forward edge entered by port %d", n, ep)
			}
			cur = to
		}
		if cur != 0 {
			t.Fatalf("ring-%d: port-0 walk did not return to start", n)
		}
	}
}

func TestCompleteStructure(t *testing.T) {
	for n := 2; n <= 10; n++ {
		g := Complete(n)
		if g.Edges() != n*(n-1)/2 {
			t.Fatalf("complete-%d has %d edges", n, g.Edges())
		}
		reg, d := g.IsRegular()
		if !reg || d != n-1 {
			t.Fatalf("complete-%d not (n-1)-regular", n)
		}
		// Canonical labeling: port p at node i leads to (i+1+p) mod n.
		for i := 0; i < n; i++ {
			for p := 0; p < n-1; p++ {
				to, _ := g.Succ(i, p)
				if to != (i+1+p)%n {
					t.Fatalf("complete-%d: succ(%d,%d)=%d", n, i, p, to)
				}
			}
		}
	}
}

func TestStarStructure(t *testing.T) {
	g := Star(6)
	if g.Degree(0) != 5 {
		t.Fatalf("star center degree %d", g.Degree(0))
	}
	for v := 1; v < 6; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("star leaf %d degree %d", v, g.Degree(v))
		}
	}
}

func TestOrientedTorus(t *testing.T) {
	for _, wh := range [][2]int{{3, 3}, {4, 3}, {5, 5}, {6, 4}} {
		w, h := wh[0], wh[1]
		g := OrientedTorus(w, h)
		reg, d := g.IsRegular()
		if !reg || d != 4 {
			t.Fatalf("torus-%dx%d not 4-regular", w, h)
		}
		// Orientation: east is always entered from the west port.
		for v := 0; v < g.N(); v++ {
			if _, ep := g.Succ(v, torusEast); ep != torusWest {
				t.Fatalf("torus east/west ports inconsistent at %d", v)
			}
			if _, ep := g.Succ(v, torusSouth); ep != torusNorth {
				t.Fatalf("torus south/north ports inconsistent at %d", v)
			}
		}
		// Going east w times returns to start.
		cur := TorusNode(w, h, 1, 1)
		for i := 0; i < w; i++ {
			cur, _ = g.Succ(cur, torusEast)
		}
		if cur != TorusNode(w, h, 1, 1) {
			t.Fatalf("torus-%dx%d: east loop broken", w, h)
		}
	}
}

func TestGridDegrees(t *testing.T) {
	g := Grid(4, 3)
	wantDeg := map[int]int{0: 2, 3: 2, 8: 2, 11: 2} // corners
	for v, want := range wantDeg {
		if g.Degree(v) != want {
			t.Fatalf("grid corner %d degree %d, want %d", v, g.Degree(v), want)
		}
	}
	if g.Degree(5) != 4 { // interior node (1,1)
		t.Fatalf("grid interior degree %d", g.Degree(5))
	}
}

func TestHypercube(t *testing.T) {
	for dim := 1; dim <= 6; dim++ {
		g := Hypercube(dim)
		if g.N() != 1<<dim {
			t.Fatalf("hypercube-%d size %d", dim, g.N())
		}
		reg, d := g.IsRegular()
		if !reg || d != dim {
			t.Fatalf("hypercube-%d not %d-regular", dim, dim)
		}
		// Distance equals Hamming distance.
		if dim >= 3 && g.Dist(0, 0b101) != 2 {
			t.Fatalf("hypercube-%d distance mismatch", dim)
		}
	}
}

// TestValidateRejectsBadGraphs pins each of Validate's verdicts by its
// error text. Hand-built adjacency reaches the cases Builder cannot
// produce; a want of "" means the graph must be accepted.
func TestValidateRejectsBadGraphs(t *testing.T) {
	build := func(n int, edges ...[2]int) *Graph {
		b := NewBuilder(n)
		for _, e := range edges {
			b.Connect(e[0], e[1])
		}
		return &Graph{adj: b.adj}
	}
	gap := NewBuilder(3)
	gap.ConnectPorts(0, 0, 1, 0)
	gap.ConnectPorts(1, 2, 2, 0) // leaves port 1 at node 1 unassigned
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"self-loop", &Graph{adj: [][]Half{{{To: 0, ToPort: 1}, {To: 0, ToPort: 0}}}},
			"graph: node 0 port 0: self-loop"},
		{"parallel edge", build(2, [2]int{0, 1}, [2]int{0, 1}),
			"graph: parallel edge between 0 and 1"},
		{"broken reciprocity", &Graph{adj: [][]Half{{{To: 1, ToPort: 0}}, {{To: 2, ToPort: 0}, {To: 0, ToPort: 0}}, {{To: 1, ToPort: 0}}}},
			"graph: port reciprocity violated at node 0 port 0"},
		{"reverse port out of range", &Graph{adj: [][]Half{{{To: 1, ToPort: 5}}, {{To: 0, ToPort: 0}}}},
			"graph: node 0 port 0: reverse port 5 out of range at node 1"},
		{"port gap", &Graph{adj: gap.adj},
			"graph: node 1 port 1: missing or out-of-range endpoint -1"},
		{"disconnected", build(4, [2]int{0, 1}, [2]int{2, 3}),
			"graph: not connected"},
		// Nodes 1 and 2 both neighbour 0 and 3: a mark left by one node
		// must not read as a parallel edge at the next.
		{"shared neighbours", build(4, [2]int{0, 1}, [2]int{0, 2}, [2]int{3, 1}, [2]int{3, 2}), ""},
	} {
		err := tc.g.Validate()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: Validate() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(6)
	d := g.BFS(0)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Fatalf("BFS on path wrong: %v", d)
		}
	}
	if g.Diameter() != 5 {
		t.Fatalf("path-6 diameter %d", g.Diameter())
	}
	if Cycle(8).Diameter() != 4 {
		t.Fatal("ring-8 diameter wrong")
	}
}

func TestTreeShapes(t *testing.T) {
	if ChainShape(4).Size() != 5 || ChainShape(4).Height() != 4 {
		t.Fatal("ChainShape wrong")
	}
	if FullShape(2, 3).Size() != 15 {
		t.Fatalf("FullShape(2,3) size %d", FullShape(2, 3).Size())
	}
	s := Shape{Kids: []Shape{{}, {Kids: []Shape{{}}}}}
	if s.Size() != 4 || s.Height() != 2 {
		t.Fatalf("shape wrong: size=%d height=%d", s.Size(), s.Height())
	}
	if s.String() != "(()(()))" {
		t.Fatalf("shape renders %q", s.String())
	}
}

func TestTreeBuilder(t *testing.T) {
	g := Tree(FullShape(2, 2))
	if g.N() != 7 || g.Edges() != 6 {
		t.Fatalf("tree wrong shape: n=%d", g.N())
	}
	if g.Degree(0) != 2 {
		t.Fatalf("tree root degree %d", g.Degree(0))
	}
	// Every non-root node's port 0 leads toward the root.
	for v := 1; v < g.N(); v++ {
		parent, _ := g.Succ(v, 0)
		if g.Dist(parent, 0) != g.Dist(v, 0)-1 {
			t.Fatalf("node %d port 0 does not lead to parent", v)
		}
	}
}

func TestSymmetricTree(t *testing.T) {
	shape := FullShape(2, 2)
	g := SymmetricTree(shape)
	size := shape.Size()
	if g.N() != 2*size {
		t.Fatalf("symtree size %d", g.N())
	}
	// Central edge joins the two roots with port 0 at both ends.
	to, ep := g.Succ(0, 0)
	if to != size || ep != 0 {
		t.Fatalf("central edge wrong: to=%d ep=%d", to, ep)
	}
	// Mirror is an involution straddling the copies.
	for v := 0; v < g.N(); v++ {
		m := SymmetricTreeMirror(shape, v)
		if SymmetricTreeMirror(shape, m) != v {
			t.Fatalf("mirror not involutive at %d", v)
		}
		if (v < size) == (m < size) {
			t.Fatalf("mirror stays in same copy at %d", v)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	for _, n := range []int{2, 5, 9, 16} {
		for _, extra := range []int{0, 1, 3} {
			if extra > n*(n-1)/2-(n-1) {
				continue
			}
			g := RandomConnected(n, extra, 42)
			if g.N() != n || g.Edges() != n-1+extra {
				t.Fatalf("random graph n=%d extra=%d wrong: m=%d", n, extra, g.Edges())
			}
		}
	}
	// Determinism in the seed.
	a := Encode(RandomConnected(10, 3, 7))
	b := Encode(RandomConnected(10, 3, 7))
	if a != b {
		t.Fatal("RandomConnected not deterministic")
	}
	if a == Encode(RandomConnected(10, 3, 8)) {
		t.Fatal("RandomConnected ignores seed")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, g := range []*Graph{TwoNode(), Cycle(7), Path(5), OrientedTorus(3, 4), SymmetricTree(ChainShape(2)), RandomConnected(12, 4, 3)} {
		s := Encode(g)
		h, err := Decode(s)
		if err != nil {
			t.Fatalf("decode %s: %v", g, err)
		}
		if Encode(h) != s {
			t.Fatalf("round trip mismatch for %s", g)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "x", "2\n1/0\n", "2\n1/0 1/0\n0/0\n", "3\n1/0\n0/0\n\n",
		"2\n1/9\n0/0\n", "2\nnope\n0/0\n",
	} {
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted %q", bad)
		}
	}
}

func TestFromSpec(t *testing.T) {
	cases := map[string]int{
		"k2":               2,
		"ring:6":           6,
		"path:4":           4,
		"complete:5":       5,
		"star:5":           5,
		"torus:3,4":        12,
		"grid:3,3":         9,
		"hypercube:3":      8,
		"qhat:2":           17,
		"symtree-chain:2":  6,
		"symtree-full:2,2": 14,
		"tree-chain:3":     4,
		"tree-full:2,2":    7,
		"random:8,2,5":     8,
		"circulant:8,1,3":  8,
		"kbipartite:2,3":   5,
		"petersen":         10,
		"ccc:3":            24,
		"lollipop:4,3":     7,
	}
	for spec, n := range cases {
		g, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		if g.N() != n {
			t.Fatalf("FromSpec(%q): n=%d want %d", spec, g.N(), n)
		}
	}
	for _, bad := range []string{"nope", "ring", "ring:2", "torus:2,2", "ring:a", "qhat:1", "circulant:8", "ccc:2", "lollipop:2,1"} {
		if _, err := FromSpec(bad); err == nil {
			t.Fatalf("FromSpec accepted %q", bad)
		}
	}
}

func TestRandomConnectedAlwaysValid(t *testing.T) {
	// Property: for arbitrary seeds and small sizes the generator builds a
	// valid graph (Validate is called internally and panics otherwise).
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw%14)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g := RandomConnected(n, extra, seed)
		return g.N() == n && g.Edges() == n-1+extra && g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Height returns the height of the shape (a single node has height 0).
func (s Shape) Height() int {
	h := 0
	for _, k := range s.Kids {
		if kh := k.Height() + 1; kh > h {
			h = kh
		}
	}
	return h
}
