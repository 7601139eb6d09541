package uxs

import (
	"testing"
	"testing/quick"

	"repro/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences differ at %d", i)
		}
	}
}

func TestGeneratePrefixStability(t *testing.T) {
	long := GenerateLength(5, 1000)
	short := GenerateLength(5, 100)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("prefix property violated at %d", i)
		}
	}
}

func TestTermsInRange(t *testing.T) {
	for n := 2; n <= 12; n++ {
		for _, a := range GenerateLength(n, 500) {
			if a < 0 || a >= n {
				t.Fatalf("term %d out of range for n=%d", a, n)
			}
		}
	}
}

func TestApplyLengths(t *testing.T) {
	g := graph.Cycle(5)
	s := GenerateLength(5, 50)
	nodes := Apply(g, 2, s)
	if len(nodes) != 52 {
		t.Fatalf("application length %d, want 52", len(nodes))
	}
	if nodes[0] != 2 {
		t.Fatal("application must start at u")
	}
	out, in := ApplyPorts(g, 2, s)
	if len(out) != 51 || len(in) != 51 {
		t.Fatalf("port traces wrong length: %d %d", len(out), len(in))
	}
	// Replay the out-ports and confirm the same node sequence.
	cur := 2
	for i, p := range out {
		to, ep := g.Succ(cur, p)
		if ep != in[i] {
			t.Fatalf("entry port mismatch at step %d", i)
		}
		cur = to
		if cur != nodes[i+1] {
			t.Fatalf("replay diverged at step %d", i)
		}
	}
}

func TestApplicationRuleMatchesPaper(t *testing.T) {
	// Hand-checked walk on the oriented ring C4 (port 0 forward, entered
	// by port 1; port 1 backward, entered by port 0). With sequence (a1) =
	// (1): u0=0, u1=succ(0,0)=1 entered by port 1; next port =
	// (1+1) mod 2 = 0, so u2 = 2.
	g := graph.Cycle(4)
	nodes := Apply(g, 0, Sequence{1})
	want := []int{0, 1, 2}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("walk %v, want %v", nodes, want)
		}
	}
	// With (a1) = (0): next port = (1+0) mod 2 = 1 -> back to 0.
	nodes = Apply(g, 0, Sequence{0})
	if nodes[2] != 0 {
		t.Fatalf("backtracking walk wrong: %v", nodes)
	}
}

// coverageFamilies enumerates every graph family and size the experiment
// suite relies on; the generated UXS must cover all of them (substitution
// S1's honesty condition).
func coverageFamilies() []*graph.Graph {
	var gs []*graph.Graph
	gs = append(gs, graph.TwoNode())
	for n := 3; n <= 16; n++ {
		gs = append(gs, graph.Cycle(n))
	}
	for n := 2; n <= 12; n++ {
		gs = append(gs, graph.Path(n))
	}
	for _, n := range []int{4, 6, 8} {
		gs = append(gs, graph.Complete(n))
	}
	gs = append(gs,
		graph.OrientedTorus(3, 3), graph.OrientedTorus(4, 3), graph.OrientedTorus(4, 4),
		graph.Grid(3, 3), graph.Grid(4, 3),
		graph.Hypercube(2), graph.Hypercube(3), graph.Hypercube(4),
		graph.Star(5), graph.Star(8),
		graph.SymmetricTree(graph.ChainShape(1)),
		graph.SymmetricTree(graph.ChainShape(2)),
		graph.SymmetricTree(graph.ChainShape(3)),
		graph.SymmetricTree(graph.FullShape(2, 2)),
		graph.Tree(graph.FullShape(2, 3)),
		graph.Tree(graph.ChainShape(5)),
	)
	g, _ := graph.Qhat(2)
	gs = append(gs, g)
	return gs
}

func TestGeneratedSequenceCoversAllFamilies(t *testing.T) {
	for _, g := range coverageFamilies() {
		s, ok := Verify(g)
		if !ok {
			t.Errorf("generated UXS (len %d) does not cover %s", len(s), g)
		}
	}
}

func TestCoversRandomGraphs(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw%12)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g := graph.RandomConnected(n, extra, seed)
		_, ok := Verify(g)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoversFromDetectsFailure(t *testing.T) {
	// A sequence that bounces forever between two nodes of a path cannot
	// cover it: constant a_i = 0 on a path flips direction every step.
	g := graph.Path(4)
	s := make(Sequence, 50)
	if CoversFrom(g, 0, s) {
		t.Fatal("bouncing sequence should not cover path-4")
	}
	if Covers(g, s) {
		t.Fatal("Covers should fail too")
	}
}

func TestLollipopAdversarialCover(t *testing.T) {
	// The lollipop is the classic worst case for walk-based exploration
	// (cover time Θ(n^3) for the uniform random walk). The default length
	// may or may not suffice — that is exactly why Covers exists — and
	// doubling the length a few times must succeed. This documents the
	// adaptive-verification pattern for users with adversarial graphs.
	g := graph.Lollipop(8, 8) // n = 16
	length := DefaultLength(16)
	for attempt := 0; attempt < 6; attempt++ {
		if Covers(g, GenerateLength(16, length)) {
			if attempt > 0 {
				t.Logf("lollipop needed %dx the default UXS length", 1<<attempt)
			}
			return
		}
		length *= 2
	}
	t.Fatal("lollipop not covered even at 32x the default length")
}

func TestVerifyReportsFailureHonestly(t *testing.T) {
	// A deliberately short sequence must be reported as non-covering, not
	// silently accepted (substitution S1's honesty requirement).
	g := graph.Cycle(12)
	if Covers(g, GenerateLength(12, 3)) {
		t.Fatal("3-step sequence cannot cover a 12-ring")
	}
}

func TestDefaultLengthMonotone(t *testing.T) {
	prev := 0
	for n := 2; n <= 40; n++ {
		l := DefaultLength(n)
		if l <= prev {
			t.Fatalf("DefaultLength not increasing at n=%d", n)
		}
		prev = l
	}
}

// Apply returns the application R(u) = (u0, u1, ..., uM+1) of the sequence
// at node u of g: u0 = u, u1 = succ(u0, 0), and each subsequent step leaves
// by (entry + a_i) mod degree.
func Apply(g *graph.Graph, u int, s Sequence) []int {
	nodes := make([]int, 0, len(s)+2)
	nodes = append(nodes, u)
	cur, entry := g.Succ(u, 0)
	nodes = append(nodes, cur)
	for _, a := range s {
		p := (entry + a) % g.Degree(cur)
		cur, entry = g.Succ(cur, p)
		nodes = append(nodes, cur)
	}
	return nodes
}

// ApplyPorts returns, for the application at u, the sequence of outgoing
// ports taken and the sequence of entry ports perceived — what an agent
// physically executing the walk sends and observes. len == len(s)+1.
func ApplyPorts(g *graph.Graph, u int, s Sequence) (out, in []int) {
	out = make([]int, 0, len(s)+1)
	in = make([]int, 0, len(s)+1)
	out = append(out, 0)
	cur, entry := g.Succ(u, 0)
	in = append(in, entry)
	for _, a := range s {
		p := (entry + a) % g.Degree(cur)
		out = append(out, p)
		cur, entry = g.Succ(cur, p)
		in = append(in, entry)
	}
	return out, in
}

// CoversFrom reports whether the application of s at u visits every node.
// The walk is streamed — no path slice is materialized — and returns as
// soon as the last unvisited node is reached.
func CoversFrom(g *graph.Graph, u int, s Sequence) bool {
	stamp := make([]int, g.N())
	return coversFrom(g, u, s, stamp, 1)
}

// Verify checks that the default generated sequence for size g.N() covers
// g, returning the sequence.
func Verify(g *graph.Graph) (Sequence, bool) {
	s := Generate(g.N())
	return s, Covers(g, s)
}
