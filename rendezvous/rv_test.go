package rendezvous

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/shrink"
	"repro/sim"
)

// mustSymm builds a SymmRV program or fails the test.
func mustSymm(t *testing.T, n, d, delta uint64) agent.Program {
	t.Helper()
	p, err := NewSymmRV(n, d, delta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSymmRVOnTwoNode(t *testing.T) {
	g := graph.TwoNode()
	for _, delta := range []uint64{1, 2, 3} {
		prog := mustSymm(t, 2, 1, delta)
		res := sim.Run(g, prog, 0, 1, delta, sim.Config{Budget: 4 * SymmRVTime(2, 1, delta)})
		if res.Outcome != sim.Met {
			t.Fatalf("K2 δ=%d: outcome %v", delta, res.Outcome)
		}
		if res.TimeFromLater > SymmRVTime(2, 1, delta) {
			t.Fatalf("K2 δ=%d: met after %d > T = %d", delta, res.TimeFromLater, SymmRVTime(2, 1, delta))
		}
	}
}

func TestSymmRVOnRings(t *testing.T) {
	// Lemma 3.2 on oriented rings: d = Shrink(u,v) = ring distance, any
	// δ >= d meets within T(n,d,δ).
	for _, c := range []struct {
		n    int
		u, v int
	}{
		{4, 0, 2}, {5, 0, 2}, {6, 1, 4},
	} {
		g := graph.Cycle(c.n)
		d := uint64(g.Dist(c.u, c.v))
		for _, delta := range []uint64{d, d + 1, d + 3} {
			prog := mustSymm(t, uint64(c.n), d, delta)
			budget := 2 * SymmRVTime(uint64(c.n), d, delta)
			res := sim.Run(g, prog, c.u, c.v, delta, sim.Config{Budget: budget})
			if res.Outcome != sim.Met {
				t.Fatalf("ring-%d (%d,%d) δ=%d: outcome %v", c.n, c.u, c.v, delta, res.Outcome)
			}
			if res.TimeFromLater > SymmRVTime(uint64(c.n), d, delta) {
				t.Fatalf("ring-%d δ=%d: met after %d rounds > T", c.n, delta, res.TimeFromLater)
			}
		}
	}
}

func TestSymmRVOnSymmetricTrees(t *testing.T) {
	// The Shrink=1 family: mirror pairs meet with any δ >= 1 using d=1.
	for _, shape := range []graph.Shape{graph.ChainShape(1), graph.ChainShape(2), graph.FullShape(2, 2)} {
		g := graph.SymmetricTree(shape)
		n := uint64(g.N())
		for _, v := range []int{0, shape.Size() - 1} {
			m := graph.SymmetricTreeMirror(shape, v)
			for _, delta := range []uint64{1, 2} {
				prog := mustSymm(t, n, 1, delta)
				res := sim.Run(g, prog, v, m, delta, sim.Config{Budget: 2 * SymmRVTime(n, 1, delta)})
				if res.Outcome != sim.Met {
					t.Fatalf("symtree-%s (%d,%d) δ=%d: outcome %v", shape, v, m, delta, res.Outcome)
				}
			}
		}
	}
}

func TestSymmRVOnTorus(t *testing.T) {
	g := graph.OrientedTorus(3, 3)
	u, v := graph.TorusNode(3, 3, 0, 0), graph.TorusNode(3, 3, 1, 1)
	d := uint64(g.Dist(u, v)) // = Shrink on the oriented torus
	prog := mustSymm(t, 9, d, d)
	res := sim.Run(g, prog, u, v, d, sim.Config{Budget: 2 * SymmRVTime(9, d, d)})
	if res.Outcome != sim.Met {
		t.Fatalf("torus: outcome %v", res.Outcome)
	}
}

func TestSymmRVImpossibleBelowShrink(t *testing.T) {
	// Lemma 3.1: with δ < Shrink(u,v) no algorithm meets; in particular
	// SymmRV runs to completion without meeting. Ring-8, pair at distance
	// 4, δ = 3 (d parameter 3 <= δ as the procedure requires).
	g := graph.Cycle(8)
	r, err := shrink.Shrink(g, 0, 4)
	if err != nil || r.Value != 4 {
		t.Fatalf("Shrink setup: %v %v", r, err)
	}
	res := sim.Run(g, mustSymm(t, 8, 3, 3), 0, 4, 3, sim.Config{Budget: 3 + 2*SymmRVTime(8, 3, 3)})
	if res.Outcome != sim.NeverMeet {
		t.Fatalf("below Shrink: outcome %v, want %v", res.Outcome, sim.NeverMeet)
	}
}

func TestSymmRVParameterValidation(t *testing.T) {
	if _, err := NewSymmRV(1, 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewSymmRV(5, 0, 3); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewSymmRV(5, 5, 6); err == nil {
		t.Fatal("d>=n accepted")
	}
	if _, err := NewSymmRV(5, 3, 2); err == nil {
		t.Fatal("δ<d accepted")
	}
	if _, err := NewSymmRV(40, 39, 39); err == nil {
		t.Fatal("saturating parameters accepted")
	}
}

func TestAsymmRVOnPath(t *testing.T) {
	// Endpoints of path-3 are nonsymmetric (entry ports at the middle
	// differ); AsymmRV with the correct delay hypothesis meets.
	g := graph.Path(3)
	for _, delta := range []uint64{0, 1, 5} {
		prog, err := NewAsymmRV(3, delta)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run(g, prog, 0, 2, delta, sim.Config{Budget: 2 * AsymmRVTime(3, delta)})
		if res.Outcome != sim.Met {
			t.Fatalf("path-3 δ=%d: outcome %v", delta, res.Outcome)
		}
		if res.TimeFromLater > AsymmRVTime(3, delta) {
			t.Fatalf("path-3 δ=%d: met after %d > D_A = %d", delta, res.TimeFromLater, AsymmRVTime(3, delta))
		}
	}
}

func TestAsymmRVOnAsymmetricPairs(t *testing.T) {
	// Center vs leaf of a star; ends vs middle of paths; random trees.
	cases := []struct {
		g    *graph.Graph
		u, v int
	}{
		{graph.Star(4), 0, 1},
		{graph.Path(4), 0, 1},
		{graph.Path(5), 1, 2},
		{graph.Tree(graph.ChainShape(3)), 0, 3},
	}
	for _, c := range cases {
		n := uint64(c.g.N())
		for _, delta := range []uint64{0, 2} {
			prog, err := NewAsymmRV(n, delta)
			if err != nil {
				t.Fatal(err)
			}
			res := sim.Run(c.g, prog, c.u, c.v, delta, sim.Config{Budget: 2 * AsymmRVTime(n, delta)})
			if res.Outcome != sim.Met {
				t.Fatalf("%s (%d,%d) δ=%d: outcome %v", c.g, c.u, c.v, delta, res.Outcome)
			}
		}
	}
}

func TestAsymmRVDurationExact(t *testing.T) {
	// A lone run of AsymmRV from every start takes exactly AsymmRVTime
	// rounds.
	g := graph.Cycle(4)
	want := AsymmRVTime(4, 0)
	for v := 0; v < g.N(); v++ {
		if got, _, _ := sim.Solo(g, func(w agent.World) { asymmRV(w, 4, 0) }, v, 0, nil); got != want {
			t.Fatalf("start %d: duration %d, want exactly %d", v, got, want)
		}
	}
}

// TestLoneClockMatchesEngine pins sim.Solo, which every duration check
// reads, against the engine: from each start, a procedure's lone clock
// equals its closed-form duration and the clock its agent reads when the
// procedure returns inside a two-agent engine run that never meets.
func TestLoneClockMatchesEngine(t *testing.T) {
	must := func(p agent.Program, err error) agent.Program {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		prog  agent.Program
		delta uint64
		shift int // start u runs against (u+shift) mod n, a pair whose Shrink exceeds δ
		want  uint64
	}{
		{"SymmRV(6,1,2)", graph.Cycle(6), mustSymm(t, 6, 1, 2), 2, 3, SymmRVTime(6, 1, 2)},
		{"SymmRV(6,2,2)", graph.Cycle(6), mustSymm(t, 6, 2, 2), 2, 3, SymmRVTime(6, 2, 2)},
		{"SymmRV(8,3,3)", graph.Cycle(8), mustSymm(t, 8, 3, 3), 3, 4, SymmRVTime(8, 3, 3)},
		{"AsymmRV(4,0)", graph.Cycle(4), must(NewAsymmRV(4, 0)), 0, 2, AsymmRVTime(4, 0)},
		{"AsymmRV(5,1)", graph.Cycle(5), must(NewAsymmRV(5, 1)), 1, 2, AsymmRVTime(5, 1)},
		{"AsymmRV(6,2)", graph.Cycle(6), must(NewAsymmRV(6, 2)), 2, 3, AsymmRVTime(6, 2)},
		{"AsymmRVID(5,0)", graph.Cycle(5), must(NewAsymmRVID(5, 0)), 0, 2, AsymmRVIDTime(5, 0)},
		{"AsymmRVID(4,1)", graph.Cycle(4), must(NewAsymmRVID(4, 1)), 1, 2, AsymmRVIDTime(4, 1)},
	}
	for _, c := range cases {
		for u := 0; u < c.g.N(); u++ {
			starts := [2]int{u, (u + c.shift) % c.g.N()}
			var lone, engine [2]uint64
			var progs [2]agent.Program
			for i, start := range starts {
				lone[i], _, _ = sim.Solo(c.g, c.prog, start, 0, nil)
				progs[i] = func(w agent.World) { c.prog(w); engine[i] = w.Clock() }
			}
			res := sim.RunPrograms(c.g, progs[0], progs[1], starts[0], starts[1], c.delta,
				sim.Config{Budget: c.delta + 2*c.want})
			if res.Outcome != sim.NeverMeet {
				t.Fatalf("%s on %s %v δ=%d: outcome %v, want %v", c.name, c.g, starts, c.delta, res.Outcome, sim.NeverMeet)
			}
			if lone != [2]uint64{c.want, c.want} || engine != lone {
				t.Fatalf("%s on %s %v δ=%d: lone clocks %v, engine clocks %v, want %d", c.name, c.g, starts, c.delta, lone, engine, c.want)
			}
		}
	}
}

func TestUniversalRVOnTwoNode(t *testing.T) {
	// Theorem 3.1 with zero knowledge: K2 is symmetric with Shrink 1, so
	// any δ >= 1 is feasible.
	g := graph.TwoNode()
	for _, delta := range []uint64{1, 2} {
		bound := UniversalRVTimeBound(2, 1, delta)
		res := sim.Run(g, UniversalRV(), 0, 1, delta, sim.Config{Budget: delta + 2*bound})
		if res.Outcome != sim.Met {
			t.Fatalf("K2 δ=%d: outcome %v after %d rounds", delta, res.Outcome, res.Rounds)
		}
		if res.TimeFromLater > bound {
			t.Fatalf("K2 δ=%d: met after %d rounds > bound %d", delta, res.TimeFromLater, bound)
		}
	}
}

func TestUniversalRVInfeasibleTwoNode(t *testing.T) {
	// δ = 0 < Shrink(0,1) = 1: infeasible; UniversalRV must never meet.
	g := graph.TwoNode()
	res := sim.Run(g, UniversalRV(), 0, 1, 0, sim.Config{Budget: 3 * UniversalRVTimeBound(2, 1, 2)})
	if res.Outcome == sim.Met {
		t.Fatal("UniversalRV met an infeasible STIC")
	}
}

func TestUniversalRVOnPath3(t *testing.T) {
	// Nonsymmetric starts, zero delay: feasible; met via the AsymmRV part.
	g := graph.Path(3)
	bound := UniversalRVTimeBound(3, 1, 0)
	res := sim.Run(g, UniversalRV(), 0, 2, 0, sim.Config{Budget: 2 * bound})
	if res.Outcome != sim.Met {
		t.Fatalf("path-3: outcome %v after %d rounds", res.Outcome, res.Rounds)
	}
}

func TestUniversalRVOnSymmetricTree(t *testing.T) {
	// symtree-chain-1 is P4 with mirrored ports: mirror pair (0, 2),
	// Shrink 1, δ=1 feasible.
	shape := graph.ChainShape(1)
	g := graph.SymmetricTree(shape)
	m := graph.SymmetricTreeMirror(shape, 0)
	bound := UniversalRVTimeBound(uint64(g.N()), 1, 1)
	res := sim.Run(g, UniversalRV(), 0, m, 1, sim.Config{Budget: 1 + 2*bound})
	if res.Outcome != sim.Met {
		t.Fatalf("symtree: outcome %v after %d rounds", res.Outcome, res.Rounds)
	}
}

func TestAsymmOnlyVariant(t *testing.T) {
	// Meets nonsymmetric STICs...
	g := graph.Path(3)
	res := sim.Run(g, AsymmOnlyUniversalRV(), 0, 2, 1, sim.Config{Budget: 4 * AsymmRVTime(3, 1) * 50})
	if res.Outcome != sim.Met {
		t.Fatalf("asymm-only on path-3: %v", res.Outcome)
	}
	// ...but has no guarantee for symmetric ones. (With δ >= 1 on K2 it
	// can still meet by accident — time breaks symmetry for any
	// move-heavy program, the paper's introductory example — so the
	// clean negative case is the infeasible δ=0 STIC.)
	g2 := graph.TwoNode()
	res = sim.Run(g2, AsymmOnlyUniversalRV(), 0, 1, 0, sim.Config{Budget: 1_000_000})
	if res.Outcome == sim.Met {
		t.Fatal("asymm-only met an infeasible symmetric STIC")
	}
}

func TestWaitForMommyBaseline(t *testing.T) {
	g := graph.Cycle(7)
	leader, nonLeader := WaitForMommy(7)
	res := sim.RunPrograms(g, leader, nonLeader, 0, 4, 3, sim.Config{Budget: 10 * UXSRoundTrip(7)})
	if res.Outcome != sim.Met {
		t.Fatalf("wait-for-Mommy: %v", res.Outcome)
	}
	if res.TimeFromLater > UXSRoundTrip(7) {
		t.Fatalf("met after %d > one round trip %d", res.TimeFromLater, UXSRoundTrip(7))
	}
}

func TestDoublingRVLabeledBaseline(t *testing.T) {
	g := graph.Cycle(5)
	p1, err := NewDoublingRV(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewDoublingRV(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Delay-oblivious: works for several delays, including 0, from
	// symmetric positions (the labels break the symmetry).
	for _, delta := range []uint64{0, 1, 7, 100} {
		res := sim.RunPrograms(g, p1, p2, 0, 2, delta, sim.Config{Budget: 1 << 24})
		if res.Outcome != sim.Met {
			t.Fatalf("doubling δ=%d: %v", delta, res.Outcome)
		}
	}
	// Equal labels from symmetric positions with δ=0 must not meet.
	res := sim.RunPrograms(g, p1, p1, 0, 2, 0, sim.Config{Budget: 1 << 20})
	if res.Outcome == sim.Met {
		t.Fatal("equal labels met from symmetric simultaneous start")
	}
}

func TestDoublingRVValidation(t *testing.T) {
	if _, err := NewDoublingRV(5, 0); err == nil {
		t.Fatal("label 0 accepted")
	}
	if _, err := NewDoublingRV(5, 21); err == nil {
		t.Fatal("oversized label accepted")
	}
}

func TestRandomWalkBaseline(t *testing.T) {
	g := graph.Cycle(6)
	a := NewLazyRandomWalk(12345)
	b := NewLazyRandomWalk(67890)
	res := sim.RunPrograms(g, a, b, 0, 3, 0, sim.Config{Budget: 1 << 20})
	if res.Outcome != sim.Met {
		t.Fatalf("lazy random walks did not meet: %v", res.Outcome)
	}
}

func TestAsymmRVValidation(t *testing.T) {
	if _, err := NewAsymmRV(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewAsymmRV(50, 0); err == nil {
		t.Fatal("saturating n accepted")
	}
}
