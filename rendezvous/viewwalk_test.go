package rendezvous

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/agent"
	"repro/graph"
	"repro/sim"
	"repro/uxs"
	"repro/view"
)

// uxsSequenceFor fetches the generated UXS for size n.
func uxsSequenceFor(n uint64) uxs.Sequence { return uxs.Generate(int(n)) }

// truncated builds the oracle tree: the view from v truncated to depth.
func truncated(g *graph.Graph, v, depth int) *view.Tree {
	t := &view.Tree{}
	t.Build(g, v, depth)
	return t
}

// soloViewWalk runs the agent-side physical view exploration alone and
// returns the flat tree it built plus the rounds it used.
func soloViewWalk(g *graph.Graph, start, depth int, budget uint64) (*view.Tree, uint64) {
	tree := &view.Tree{}
	used, _, _ := sim.Solo(g, func(w agent.World) { viewWalk(w, depth, budget, tree) }, start, 0, nil)
	return tree, used
}

func TestViewWalkMatchesOracle(t *testing.T) {
	// The tree an agent reconstructs by physically exploring all paths
	// must equal the truncated view, byte for byte after canonical encoding —
	// the property AsymmRV's labels rest on.
	cases := []*graph.Graph{
		graph.TwoNode(),
		graph.Path(4),
		graph.Cycle(5),
		graph.Star(4),
		graph.SymmetricTree(graph.ChainShape(2)),
		graph.OrientedTorus(3, 3),
		graph.Petersen(),
	}
	for _, g := range cases {
		for depth := 0; depth <= 3; depth++ {
			for v := 0; v < g.N(); v++ {
				got, used := soloViewWalk(g, v, depth, RoundCap)
				want := truncated(g, v, depth)
				if !bytes.Equal(got.AppendEncode(nil), want.AppendEncode(nil)) {
					t.Fatalf("%s node %d depth %d: agent view differs from oracle", g, v, depth)
				}
				// The physical walk must also match the pointer-based
				// reference implementation, not just the flat oracle.
				if !reflect.DeepEqual(got.Ref(), view.RefTruncated(g, v, depth)) {
					t.Fatalf("%s node %d depth %d: agent view differs from reference", g, v, depth)
				}
				// Round accounting: two rounds per path of length <= depth.
				paths := countPaths(g, v, depth)
				if used != 2*uint64(paths) {
					t.Fatalf("%s node %d depth %d: used %d rounds, want %d", g, v, depth, used, 2*paths)
				}
			}
		}
	}
}

// countPaths counts port sequences of length 1..depth from v.
func countPaths(g *graph.Graph, v, depth int) int {
	if depth == 0 {
		return 0
	}
	total := 0
	for p := 0; p < g.Degree(v); p++ {
		to, _ := g.Succ(v, p)
		total += 1 + countPaths(g, to, depth-1)
	}
	return total
}

func TestViewWalkMatchesOracleRandom(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%7)
		g := graph.RandomConnected(n, 0, seed)
		for v := 0; v < n; v++ {
			got, _ := soloViewWalk(g, v, 3, RoundCap)
			if !bytes.Equal(got.AppendEncode(nil), truncated(g, v, 3).AppendEncode(nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestViewWalkCacheReplayMatchesFirstWalk pins the per-(depth,budget)
// walk cache: a second walk at the same key must replay the exact same
// move script (same rounds, same end position) and deliver the identical
// tree, including under a binding budget cap.
func TestViewWalkCacheReplayMatchesFirstWalk(t *testing.T) {
	cases := []struct {
		g      *graph.Graph
		depth  int
		budget uint64
	}{
		{graph.Path(4), 3, RoundCap},
		{graph.Cycle(5), 3, RoundCap},
		{graph.Petersen(), 2, RoundCap},
		{graph.Cycle(6), 5, 10}, // budget-capped walk: frontier truncation must replay too
	}
	for _, c := range cases {
		for v := 0; v < c.g.N(); v++ {
			var s rvScratch
			var first, replay view.Tree
			used, end, _ := sim.Solo(c.g, func(w agent.World) { viewWalkWith(w, c.depth, c.budget, &first, &s) }, v, 0, nil)
			if end != v {
				t.Fatalf("%s node %d: first walk ended at %d", c.g, v, end)
			}
			again, end, _ := sim.Solo(c.g, func(w agent.World) { viewWalkWith(w, c.depth, c.budget, &replay, &s) }, v, 0, nil)
			if again != used {
				t.Fatalf("%s node %d: replay used %d rounds, first walk %d", c.g, v, again, used)
			}
			if end != v {
				t.Fatalf("%s node %d: replay ended at %d", c.g, v, end)
			}
			if !bytes.Equal(first.AppendEncode(nil), replay.AppendEncode(nil)) {
				t.Fatalf("%s node %d: replayed tree differs from first walk", c.g, v)
			}
		}
	}
}

func TestViewWalkBudgetCap(t *testing.T) {
	// With a tight budget the walk truncates instead of overrunning —
	// the wrong-hypothesis safety property.
	g := graph.Cycle(6)
	_, used := soloViewWalk(g, 0, 5, 10)
	if used > 10 {
		t.Fatalf("budget cap violated: used %d rounds", used)
	}
	// Budget 0: no moves at all, the tree is just the root.
	tree, used := soloViewWalk(g, 0, 5, 0)
	if used != 0 || tree.At(0).Deg != 2 {
		t.Fatalf("zero-budget walk moved: used=%d", used)
	}
}

func TestNorrisDepthSufficiencyViaLabels(t *testing.T) {
	// For every nonsymmetric pair, depth n-1 view encodings differ — the
	// premise of AsymmRV's label schedule (Norris' theorem).
	for _, g := range []*graph.Graph{graph.Path(5), graph.Star(4), graph.Tree(graph.FullShape(2, 2)), graph.Petersen()} {
		c := view.Classes(g)
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				tu, _ := soloViewWalk(g, u, g.N()-1, RoundCap)
				tv, _ := soloViewWalk(g, v, g.N()-1, RoundCap)
				same := bytes.Equal(tu.AppendEncode(nil), tv.AppendEncode(nil))
				if same != (c[u] == c[v]) {
					t.Fatalf("%s (%d,%d): label equality %v but class equality %v", g, u, v, same, c[u] == c[v])
				}
			}
		}
	}
}

func TestUXSRoundTripReturnsHome(t *testing.T) {
	// One round trip must end where it started and take exactly
	// UXSRoundTrip(n) rounds — the slot-length invariant of AsymmRV.
	for _, g := range []*graph.Graph{graph.Cycle(7), graph.Path(4), graph.OrientedTorus(3, 3)} {
		n := uint64(g.N())
		dur, end, _ := sim.Solo(g, func(w agent.World) {
			newUXSWalk(uxsSequenceFor(n)).roundTrip(w)
		}, 0, 0, nil)
		if dur != UXSRoundTrip(n) {
			t.Fatalf("%s: round trip %d rounds, want %d", g, dur, UXSRoundTrip(n))
		}
		if end != 0 {
			t.Fatalf("%s: round trip ended at %d", g, end)
		}
	}
}

// roundTrip performs one application of the UXS from the current node
// (M+1 moves) followed by backtracking home along the reverse path,
// consuming exactly UXSRoundTrip(n) = 2*(M+1) rounds — as two batched
// scripts: the forward application and the reversed entry-port path.
func (u uxsWalk) roundTrip(w agent.World) {
	entries := u.firstApplication(w)
	rev := scratchInts(u.rev, len(entries))
	for i, j := 0, len(entries)-1; j >= 0; i, j = i+1, j-1 {
		rev[i] = entries[j]
	}
	w.MoveSeq(rev)
}

// viewWalk is viewWalkWith on a fresh scratch.
func viewWalk(w agent.World, depth int, maxRounds uint64, t *view.Tree) {
	var s rvScratch
	viewWalkWith(w, depth, maxRounds, t, &s)
}
