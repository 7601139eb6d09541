package experiments

import (
	"fmt"

	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
	"repro/stic"
)

// E3 verifies the impossibility half of the characterization (Lemma 3.1):
// for symmetric pairs with δ < Shrink(u,v), no deterministic algorithm can
// achieve rendezvous. Two independent confirmations per STIC:
//
//  1. On port-homogeneous graphs every algorithm is equivalent to an
//     oblivious action word (the Theorem 4.1 reduction), and the
//     exhaustive word search closes the reachable state space without
//     finding a meeting — a machine-checked proof of infeasibility.
//  2. UniversalRV — which meets every feasible STIC — runs out a generous
//     budget without meeting.
func E3() *Table {
	t := &Table{
		ID:       "E3",
		Title:    "Infeasibility below Shrink",
		PaperRef: "Lemma 3.1",
		Columns:  []string{"graph", "pair", "Shrink", "δ", "word search", "states", "UniversalRV"},
	}

	type inst struct {
		g    *graph.Graph
		u, v int
	}
	var cases []inst
	add := func(g *graph.Graph, pairs ...[2]int) {
		for _, p := range pairs {
			cases = append(cases, inst{g, p[0], p[1]})
		}
	}
	add(graph.TwoNode(), [2]int{0, 1})
	add(graph.Cycle(4), [2]int{0, 2})
	add(graph.Cycle(6), [2]int{0, 3}, [2]int{0, 2})
	add(graph.OrientedTorus(3, 3), [2]int{0, 4})
	q2, _ := graph.Qhat(2)
	add(q2, [2]int{0, 5})

	// One unit per (pair, δ) below Shrink, for the pairs that pass the
	// precondition checks; the units are independent runs.
	type unit struct {
		c     inst
		delta uint64
	}
	type outcome struct {
		res stic.WordResult
		err error
		uni sim.Result
	}
	reps := make([]stic.Report, len(cases))
	fails := make([]string, len(cases))
	var units []unit
	for i, c := range cases {
		reps[i] = stic.Classify(stic.STIC{G: c.g, U: c.u, V: c.v, Delay: 0})
		switch {
		case !reps[i].Symmetric:
			fails[i] = fmt.Sprintf("%s pair (%d,%d) unexpectedly nonsymmetric", c.g, c.u, c.v)
		case !stic.PortHomogeneous(c.g):
			fails[i] = fmt.Sprintf("%s not port-homogeneous; word search not exhaustive over all algorithms", c.g)
		default:
			for delta := uint64(0); delta < uint64(reps[i].Shrink); delta++ {
				units = append(units, unit{c, delta})
			}
		}
	}
	outs := sim.Sweep(units, 0, nil, func(sc *sim.Scratch, u unit) outcome {
		s := stic.STIC{G: u.c.g, U: u.c.u, V: u.c.v, Delay: u.delta}
		res, err := stic.SearchObliviousWord(s, 5_000_000)
		// UniversalRV negative control. The exhaustive search is the
		// actual impossibility proof; this run is a sanity check, so its
		// budget is kept modest: past the K2-scale guarantee phases but
		// bounded for speed.
		budget := uint64(2_000_000)
		if b := rendezvous.UniversalRVTimeBound(2, 1, u.delta+1); b < rendezvous.RoundCap && 2*b > budget {
			budget = 2 * b
		}
		if budget > 4_000_000 {
			budget = 4_000_000
		}
		uni := sc.Session().Run(u.c.g, rendezvous.UniversalRV(), u.c.u, u.c.v, u.delta, sim.Config{Budget: budget})
		return outcome{res, err, uni}
	})

	// Runs are collected first; rows and checks are issued in input
	// order, which keeps the table byte-identical.
	next := 0
	for i, c := range cases {
		rep := reps[i]
		if fails[i] != "" {
			t.Check(false, "%s", fails[i])
			continue
		}
		for delta := uint64(0); delta < uint64(rep.Shrink); delta++ {
			s := stic.STIC{G: c.g, U: c.u, V: c.v, Delay: delta}
			o := outs[next]
			next++
			res := o.res
			searchCell := "exhausted (proof)"
			if o.err != nil {
				searchCell = "error: " + o.err.Error()
				t.Check(false, "%s: %v", s, o.err)
			} else {
				t.Check(!res.Found, "%s: found word %v — impossibility violated!", s, res.Word)
				t.Check(res.Exhausted, "%s: search inconclusive at %d states", s, res.States)
				if res.Found {
					searchCell = "FOUND WORD"
				} else if !res.Exhausted {
					searchCell = "inconclusive"
				}
			}
			t.Check(o.uni.Outcome != sim.Met, "%s: UniversalRV met an infeasible STIC", s)
			uniCell := fmt.Sprintf("no meet in %d rounds", o.uni.Rounds)
			if o.uni.Outcome == sim.Met {
				uniCell = "MET (violation)"
			}

			t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), rep.Shrink, delta, searchCell, res.States, uniCell)
		}
	}
	t.Notes = append(t.Notes,
		"'exhausted (proof)' means the full reachable state space of the word search was explored without a meeting; on these port-homogeneous graphs that is a proof over all deterministic algorithms, not just the ones we implemented.")
	return t
}
