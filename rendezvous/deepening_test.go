package rendezvous

import (
	"slices"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
	"repro/stic"
)

func TestAsymmRVIDMeetsNonsymmetricPairs(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		u, v int
	}{
		{graph.Path(3), 0, 2},
		{graph.Path(4), 0, 1},
		{graph.Star(4), 0, 2},
		{graph.Tree(graph.ChainShape(3)), 0, 3},
	}
	for _, c := range cases {
		n := uint64(c.g.N())
		for _, delta := range []uint64{0, 1, 3} {
			prog, err := NewAsymmRVID(n, delta)
			if err != nil {
				t.Fatal(err)
			}
			bound := AsymmRVIDTime(n, delta)
			res := sim.Run(c.g, prog, c.u, c.v, delta, sim.Config{Budget: delta + 2*bound})
			if res.Outcome != sim.Met {
				t.Fatalf("%s (%d,%d) δ=%d: %v", c.g, c.u, c.v, delta, res.Outcome)
			}
			if res.TimeFromLater > bound {
				t.Fatalf("%s δ=%d: met after %d > bound %d", c.g, delta, res.TimeFromLater, bound)
			}
		}
	}
}

func TestAsymmRVIDDurationExact(t *testing.T) {
	// A lone run from every start takes exactly AsymmRVIDTime.
	g := graph.Cycle(5)
	want := AsymmRVIDTime(5, 0)
	for v := 0; v < g.N(); v++ {
		got, _, _ := sim.Solo(g, func(w agent.World) { asymmRVID(w, 5, 0) }, v, 0, nil)
		if got != want {
			t.Fatalf("start %d: duration %d, want %d", v, got, want)
		}
	}
}

func TestAsymmRVIDCheaperOnShallowAsymmetry(t *testing.T) {
	// The point of the extension: on pairs distinguished at depth 1, the
	// deepening variant does far fewer physical moves than the full-depth
	// version before meeting.
	g := graph.Path(4)
	n := uint64(4)
	full, err := NewAsymmRV(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewAsymmRVID(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	resFull := sim.Run(g, full, 0, 1, 0, sim.Config{Budget: 2 * AsymmRVTime(n, 0)})
	resFast := sim.Run(g, fast, 0, 1, 0, sim.Config{Budget: 2 * AsymmRVIDTime(n, 0)})
	if resFull.Outcome != sim.Met || resFast.Outcome != sim.Met {
		t.Fatalf("outcomes %v / %v", resFull.Outcome, resFast.Outcome)
	}
	if resFast.MovesA+resFast.MovesB >= resFull.MovesA+resFull.MovesB {
		t.Fatalf("deepening not cheaper: fast %d+%d moves vs full %d+%d",
			resFast.MovesA, resFast.MovesB, resFull.MovesA, resFull.MovesB)
	}
}

func TestFastUniversalRVSuite(t *testing.T) {
	// Same guarantee set as UniversalRV on the quick STIC suite.
	type caze struct {
		g     *graph.Graph
		u, v  int
		delta uint64
	}
	cases := []caze{
		{graph.TwoNode(), 0, 1, 0}, // infeasible
		{graph.TwoNode(), 0, 1, 1},
		{graph.TwoNode(), 0, 1, 2},
		{graph.Path(3), 0, 2, 0},
		{graph.Path(3), 0, 2, 1},
		{graph.SymmetricTree(graph.ChainShape(1)), 0, 2, 1},
	}
	for _, c := range cases {
		rep := stic.Classify(stic.STIC{G: c.g, U: c.u, V: c.v, Delay: c.delta})
		n := uint64(c.g.N())
		d := uint64(rep.Shrink)
		if !rep.Symmetric || d == 0 {
			d = 1
		}
		bound := FastUniversalRVTimeBound(n, d, c.delta)
		budget := c.delta + 2*bound
		if !rep.Feasible {
			budget = c.delta + 2*FastUniversalRVTimeBound(n, d, c.delta+1)
		}
		res := sim.Run(c.g, FastUniversalRV(), c.u, c.v, c.delta, sim.Config{Budget: budget})
		if (res.Outcome == sim.Met) != rep.Feasible {
			t.Fatalf("%s (%d,%d) δ=%d: outcome %v, feasible %v", c.g, c.u, c.v, c.delta, res.Outcome, rep.Feasible)
		}
		if res.Outcome == sim.Met && res.TimeFromLater > bound {
			t.Fatalf("%s δ=%d: met after %d > fast bound %d", c.g, c.delta, res.TimeFromLater, bound)
		}
	}
}

func TestDepthGeneralizationsMatchFullDepth(t *testing.T) {
	// AsymmRV is the deepening variant's last sub-phase alone: its
	// trajectory is the tail of AsymmRVID's, and each runs for its
	// closed-form duration (the traces get one round more than that to
	// show each procedure returns in time).
	for _, g := range []*graph.Graph{graph.Path(4), graph.Cycle(5), graph.Star(4)} {
		n := uint64(g.N())
		full := sim.SoloTrace(g, func(w agent.World) { asymmRV(w, n, 1) }, 0, AsymmRVTime(n, 1)+1)
		deep := sim.SoloTrace(g, func(w agent.World) { asymmRVID(w, n, 1) }, 0, AsymmRVIDTime(n, 1)+1)
		tail := deep.Steps[len(deep.Steps)-len(full.Steps):]
		if !slices.Equal(tail, full.Steps) {
			t.Fatalf("%s: AsymmRV's %d steps are not the tail of AsymmRVID's", g, len(full.Steps))
		}
		if full.Clock() != AsymmRVTime(n, 1) || deep.Clock() != AsymmRVIDTime(n, 1) {
			t.Fatalf("%s: traces cover %d and %d rounds, want %d and %d", g,
				full.Clock(), deep.Clock(), AsymmRVTime(n, 1), AsymmRVIDTime(n, 1))
		}
	}
}

func TestAsymmRVIDValidation(t *testing.T) {
	if _, err := NewAsymmRVID(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewAsymmRVID(50, 0); err == nil {
		t.Fatal("saturating n accepted")
	}
}
