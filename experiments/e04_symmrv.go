package experiments

import (
	"fmt"

	"repro/graph"
	"repro/rendezvous"
	"repro/shrink"
	"repro/sim"
)

// symmCase is one SymmRV workload: a graph, a symmetric pair, and a delay.
type symmCase struct {
	g    *graph.Graph
	u, v int
	d    uint64 // Shrink(u,v), the procedure's d parameter
	dlt  uint64
}

// symmCases builds the E4/E5 workload: symmetric pairs across the paper's
// families with delays sweeping from Shrink upward.
func symmCases() []symmCase {
	var cases []symmCase
	add := func(g *graph.Graph, u, v int, deltas ...uint64) {
		r, err := shrink.Shrink(g, u, v)
		if err != nil {
			panic(fmt.Sprintf("experiments: symmCases pair not symmetric: %v", err))
		}
		for _, dlt := range deltas {
			cases = append(cases, symmCase{g, u, v, uint64(r.Value), uint64(r.Value) + dlt})
		}
	}
	add(graph.TwoNode(), 0, 1, 0, 1, 2)
	add(graph.Cycle(4), 0, 2, 0, 1)
	add(graph.Cycle(5), 0, 2, 0, 2)
	add(graph.Cycle(6), 1, 4, 0, 1)
	add(graph.OrientedTorus(3, 3), 0, 4, 0, 1)
	for _, shape := range []graph.Shape{graph.ChainShape(1), graph.ChainShape(2), graph.FullShape(2, 2)} {
		g := graph.SymmetricTree(shape)
		deep := shape.Size() - 1
		add(g, 0, graph.SymmetricTreeMirror(shape, 0), 0, 1)
		add(g, deep, graph.SymmetricTreeMirror(shape, deep), 0)
	}
	add(graph.Hypercube(3), 0, 3, 0, 1) // Hamming distance 2
	return cases
}

// E4 exercises Lemma 3.2: SymmRV(n, Shrink(u,v), δ) achieves rendezvous
// for every symmetric STIC with δ >= Shrink(u,v), within the Lemma 3.3
// budget T(n,d,δ). Runs execute through sim.Sweep, sharded by graph:
// one graph's delay sweep runs on one worker's pooled session.
func E4() *Table {
	t := &Table{
		ID:       "E4",
		Title:    "SymmRV meets all symmetric STICs with δ >= Shrink",
		PaperRef: "Lemma 3.2 (Algorithm 1/2), Lemma 3.3 budget",
		Columns:  []string{"graph", "pair", "d=Shrink", "δ", "met", "time from later", "T(n,d,δ)", "moves/agent"},
	}
	cases := symmCases()
	results := sim.Sweep(cases, 0, func(c symmCase) any { return c.g }, func(sc *sim.Scratch, c symmCase) sim.Result {
		n := uint64(c.g.N())
		prog, err := rendezvous.NewSymmRV(n, c.d, c.dlt)
		if err != nil {
			panic(err)
		}
		bound := rendezvous.SymmRVTime(n, c.d, c.dlt)
		return sc.Session().Run(c.g, prog, c.u, c.v, c.dlt, sim.Config{Budget: c.dlt + 2*bound})
	})
	for i, c := range cases {
		n := uint64(c.g.N())
		bound := rendezvous.SymmRVTime(n, c.d, c.dlt)
		res := results[i]
		t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), c.d, c.dlt,
			res.Outcome == sim.Met, res.TimeFromLater, bound, res.MovesA)
		t.Check(res.Outcome == sim.Met, "%s (%d,%d) δ=%d: outcome %v", c.g, c.u, c.v, c.dlt, res.Outcome)
		t.Check(res.TimeFromLater <= bound, "%s δ=%d: time %d > T=%d", c.g, c.dlt, res.TimeFromLater, bound)
	}
	t.Notes = append(t.Notes,
		"d is set to the true Shrink(u,v) computed by pair-product BFS; Lemma 3.2's hypothesis δ >= Shrink is satisfied by construction.",
		"Runs execute concurrently via a worker pool, each graph's cases advancing in lockstep as lanes of one batch; every lane is deterministic.")
	return t
}

// E5 verifies Lemma 3.3 with equality: thanks to duration padding, the
// implementation's SymmRV takes *exactly* T(n,d,δ) rounds regardless of
// the graph or start node. A procedure's duration depends on its own
// agent's walk alone, so it is measured with one lone run (sim.Solo) from
// each start of a symmetric pair.
func E5() *Table {
	t := &Table{
		ID:       "E5",
		Title:    "SymmRV duration equals T(n,d,δ) exactly",
		PaperRef: "Lemma 3.3",
		Columns:  []string{"graph", "pair", "d", "δ", "measured rounds", "T(n,d,δ)", "equal"},
	}
	type caze struct {
		g        *graph.Graph
		u, v     int
		d, delta uint64
	}
	cases := []caze{
		{graph.Cycle(6), 0, 3, 1, 2},
		{graph.Cycle(8), 0, 4, 2, 3},
		{graph.OrientedTorus(3, 3), 0, 4, 1, 1},
		{graph.Hypercube(3), 0, 7, 1, 2},
	}
	runs := sim.ParallelMap(cases, 0, func(c caze) (durations [2]uint64) {
		prog, err := rendezvous.NewSymmRV(uint64(c.g.N()), c.d, c.delta)
		if err != nil {
			panic(err)
		}
		durations[0], _, _ = sim.Solo(c.g, prog, c.u, 0, nil)
		durations[1], _, _ = sim.Solo(c.g, prog, c.v, 0, nil)
		return durations
	})
	// Runs are collected first; rows and checks are issued in input
	// order, which keeps the table byte-identical.
	for i, c := range cases {
		n := uint64(c.g.N())
		want := rendezvous.SymmRVTime(n, c.d, c.delta)
		durations := runs[i]
		equal := durations[0] == want && durations[1] == want
		t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), c.d, c.delta, durations[0], want, equal)
		t.Check(equal, "%s d=%d δ=%d: durations %v, want exactly %d", c.g, c.d, c.delta, durations, want)
	}
	t.Notes = append(t.Notes,
		"The paper states T as an upper bound; the implementation pads Explore to (n-1)^d iterations so the bound is achieved with equality — the property UniversalRV's phase synchrony rests on.")
	return t
}
