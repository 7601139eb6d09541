package experiments

import (
	"errors"
	"fmt"

	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// E13 is the design-choice ablation DESIGN.md calls out: duration padding.
// The paper's pseudocode enumerates only the paths that exist, leaving
// procedure durations dependent on the degrees along the walk; UniversalRV
// silently relies on both agents spending identical time per phase. The
// table measures, per start node, the unpadded SymmRV duration (they
// differ across starts — the desync) and the padded duration (always
// exactly T(n,d,δ)); it also confirms the unpadded variant still works
// for symmetric pairs, where identical views imply identical durations.
func E13() *Table {
	t := &Table{
		ID:       "E13",
		Title:    "Ablation: duration padding vs paper-literal Explore",
		PaperRef: "Algorithm 2 / Theorem 3.1's implicit phase-synchrony requirement",
		Columns:  []string{"graph", "start", "unpadded rounds", "padded rounds", "T(n,d,δ)"},
	}
	type caze struct {
		g        *graph.Graph
		d, delta uint64
	}
	cases := []caze{
		{graph.Path(4), 1, 1},
		{graph.Tree(graph.FullShape(2, 2)), 1, 2},
		{graph.Grid(3, 3), 1, 1},
	}
	type start struct {
		c caze
		v int
	}
	var starts []start
	for _, c := range cases {
		for v := 0; v < c.g.N(); v++ {
			starts = append(starts, start{c, v})
		}
	}
	// One lone run (sim.Solo) per start and procedure.
	durations := sim.ParallelMap(starts, 0, func(s start) (d [2]uint64) {
		n := uint64(s.c.g.N())
		unpadded, err1 := rendezvous.NewUnpaddedSymmRV(n, s.c.d, s.c.delta)
		padded, err2 := rendezvous.NewSymmRV(n, s.c.d, s.c.delta)
		if err := errors.Join(err1, err2); err != nil {
			panic(err)
		}
		d[0], _, _ = sim.Solo(s.c.g, unpadded, s.v, 0, nil)
		d[1], _, _ = sim.Solo(s.c.g, padded, s.v, 0, nil)
		return d
	})
	// Runs are collected first; rows and checks are issued in input
	// order, which keeps the table byte-identical.
	next := 0
	for _, c := range cases {
		n := uint64(c.g.N())
		want := rendezvous.SymmRVTime(n, c.d, c.delta)
		distinct := map[uint64]bool{}
		for v := 0; v < c.g.N(); v++ {
			unp, pad := durations[next][0], durations[next][1]
			next++
			distinct[unp] = true
			t.AddRow(c.g.String(), v, unp, pad, want)
			t.Check(pad == want, "%s start %d: padded %d != T %d", c.g, v, pad, want)
			t.Check(unp <= want, "%s start %d: unpadded %d exceeds T", c.g, v, unp)
		}
		t.Check(len(distinct) > 1,
			"%s: unpadded durations do not desync (all %v) — ablation inconclusive", c.g, distinct)
	}

	// Unpadded SymmRV still meets symmetric pairs (same view => same
	// duration), so the padding matters only for universality.
	g := graph.Cycle(5)
	prog, err := rendezvous.NewUnpaddedSymmRV(5, 2, 2)
	if err != nil {
		t.Check(false, "constructor: %v", err)
		return t
	}
	res := sim.Run(g, prog, 0, 2, 2, sim.Config{Budget: 2 + 2*rendezvous.SymmRVTime(5, 2, 2)})
	t.Check(res.Outcome == sim.Met, "unpadded SymmRV failed on a symmetric pair: %v", res.Outcome)
	t.Notes = append(t.Notes,
		"Distinct 'unpadded rounds' within one graph = two agents starting at those nodes finish the same phase at different times; every later phase of a universal algorithm would then run with a corrupted delay. The padded column is constant by construction.",
		fmt.Sprintf("Sanity: unpadded SymmRV still met the symmetric ring-5 pair (outcome %v) — identical views imply identical unpadded durations.", res.Outcome))
	return t
}
