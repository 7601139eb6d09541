package graph

import "testing"

func TestQhSize(t *testing.T) {
	want := map[int]int{1: 5, 2: 17, 3: 53, 4: 161}
	for h, n := range want {
		if QhSize(h) != n {
			t.Fatalf("QhSize(%d) = %d, want %d", h, QhSize(h), n)
		}
	}
}

func TestQhatStructure(t *testing.T) {
	for h := 2; h <= 5; h++ {
		g, info := Qhat(h)
		if g.N() != QhSize(h) {
			t.Fatalf("qhat-%d size %d", h, g.N())
		}
		reg, d := g.IsRegular()
		if !reg || d != 4 {
			t.Fatalf("qhat-%d not 4-regular", h)
		}
		// Every edge must have ports N-S or E-W at its extremities.
		for v := 0; v < g.N(); v++ {
			for p := 0; p < 4; p++ {
				if _, ep := g.Succ(v, p); ep != Opposite(p) {
					t.Fatalf("qhat-%d: node %d port %d entered by %d, want %d", h, v, p, ep, Opposite(p))
				}
			}
		}
		// Leaf counts: x = 3^(h-1) of each of the four types.
		x := 1
		for i := 1; i < h; i++ {
			x *= 3
		}
		for tp := 0; tp < 4; tp++ {
			if len(info.Leaves[tp]) != x {
				t.Fatalf("qhat-%d: type %c has %d leaves, want %d", h, PortLetter(tp), len(info.Leaves[tp]), x)
			}
		}
		if info.X() != x {
			t.Fatalf("qhat-%d: X() = %d", h, info.X())
		}
	}
}

func TestQhatLeafTypeMeansTreePort(t *testing.T) {
	// In the tree Qh, a type-A leaf's only tree edge uses port A at the
	// leaf. In Q̂h that edge must still be present at port A and lead to a
	// node strictly closer to the root.
	g, info := Qhat(3)
	distRoot := g.BFS(info.Root)
	// Tree nodes were created in BFS order, so leaves are the deepest ids;
	// all other Q̂h edges at a leaf connect leaves to leaves.
	firstLeaf := g.N() - 4*info.X()
	for tp := 0; tp < 4; tp++ {
		for _, leaf := range info.Leaves[tp] {
			if leaf < firstLeaf {
				t.Fatalf("leaf id %d below first leaf id %d", leaf, firstLeaf)
			}
			parent, _ := g.Succ(leaf, tp)
			if parent >= firstLeaf {
				t.Fatalf("type-%c leaf %d: port %c does not lead to the tree parent", PortLetter(tp), leaf, PortLetter(tp))
			}
			if distRoot[parent] != 2 { // leaves of qhat-3 are at distance 3
				t.Fatalf("leaf parent at distance %d from root", distRoot[parent])
			}
		}
	}
}

func TestQhatOppositeAndLetters(t *testing.T) {
	if Opposite(PortN) != PortS || Opposite(PortE) != PortW ||
		Opposite(PortS) != PortN || Opposite(PortW) != PortE {
		t.Fatal("Opposite broken")
	}
	for p := 0; p < 4; p++ {
		if PortFromLetter(PortLetter(p)) != p {
			t.Fatalf("letter round trip broken for %d", p)
		}
	}
	if PortFromLetter('x') != -1 {
		t.Fatal("PortFromLetter accepted garbage")
	}
}

func TestNavigate(t *testing.T) {
	g, info := Qhat(3)
	// N then S returns to start (inside the tree ball).
	v, err := Navigate(g, info.Root, "NS")
	if err != nil || v != info.Root {
		t.Fatalf("NS from root = %d, %v", v, err)
	}
	// Waits are position-preserving.
	v, err = Navigate(g, info.Root, "N.S.")
	if err != nil || v != info.Root {
		t.Fatalf("N.S. from root = %d, %v", v, err)
	}
	if _, err := Navigate(g, info.Root, "NX"); err == nil {
		t.Fatal("Navigate accepted bad letter")
	}
}

func TestQhatZAndM(t *testing.T) {
	// D = 2, k = 1, h = 2D = 4 per the theorem's parameterization.
	k := 1
	D := 2 * k
	g, info := Qhat(2 * D)
	z := QhatZ(g, info.Root, k)
	if len(z) != 2 {
		t.Fatalf("Z size %d", len(z))
	}
	distRoot := g.BFS(info.Root)
	seen := map[int]bool{}
	for mask, v := range z {
		if distRoot[v] != D {
			t.Fatalf("Z node %d at distance %d, want %d", v, distRoot[v], D)
		}
		if seen[v] {
			t.Fatalf("Z nodes not distinct")
		}
		seen[v] = true
		m := QhatM(g, info.Root, k, mask)
		if distRoot[m] != k {
			t.Fatalf("M(v) at distance %d, want %d", distRoot[m], k)
		}
		if g.Dist(m, v) != k {
			t.Fatalf("M(v) not midway: dist(M,v)=%d", g.Dist(m, v))
		}
	}
}

func TestQhatZLarger(t *testing.T) {
	// k = 2: D = 4, h = 8 would have 13121 nodes; structural Z properties
	// can be checked on a smaller ball as long as 2D <= h, using h = 2D.
	k := 2
	D := 2 * k
	g, info := Qhat(2 * D)
	z := QhatZ(g, info.Root, k)
	if len(z) != 4 {
		t.Fatalf("Z size %d", len(z))
	}
	distRoot := g.BFS(info.Root)
	mids := map[int]bool{}
	for mask, v := range z {
		if distRoot[v] != D {
			t.Fatalf("Z node at distance %d", distRoot[v])
		}
		mids[QhatM(g, info.Root, k, mask)] = true
	}
	if len(mids) != 4 {
		t.Fatalf("M(v) nodes not distinct: %d", len(mids))
	}
}

func TestQhatRejectsSmallH(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Qhat(1) should panic")
		}
	}()
	Qhat(1)
}

// PortLetter returns the letter for a cardinal port number.
func PortLetter(p int) byte { return "NESW"[p] }
