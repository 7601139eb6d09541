package experiments

import (
	"fmt"

	"repro/dist"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
	"repro/stic"
)

// E17 extends the paper beyond two agents (its related work [25] studies
// gathering): because agents cannot interact before co-locating, any two
// of k agents running UniversalRV behave exactly as a two-agent run, so
// Theorem 3.1 applies *pairwise* — every pair whose pairwise STIC is
// feasible must meet. The experiment runs k agents simultaneously and
// checks each pair against its two-agent characterization. Full
// gathering (all k at one node in one round) is NOT implied and is
// reported as observed.
func E17(full bool) *Table {
	t := &Table{
		ID:       "E17",
		Title:    "k agents: pairwise rendezvous under UniversalRV",
		PaperRef: "Theorem 3.1 applied pairwise; gathering cf. the paper's ref [25]",
		Columns:  []string{"graph", "starts", "delays", "pair", "pairwise δ", "feasible", "met", "round"},
	}
	type caze struct {
		g      *graph.Graph
		starts []int
		appear []uint64
		budget uint64
	}
	cases := []caze{
		{
			g:      graph.Path(3),
			starts: []int{0, 1, 2},
			appear: []uint64{0, 0, 1},
			budget: 2 * rendezvous.UniversalRVTimeBound(3, 1, 1),
		},
	}
	if full {
		cases = append(cases, caze{
			g:      graph.Cycle(4),
			starts: []int{0, 1, 2},
			appear: []uint64{0, 1, 3},
			budget: 3 + 2*rendezvous.UniversalRVTimeBound(4, 2, 3),
		})
	}
	// The k-agent runs go through the dist dispatcher as KindMulti shard
	// descriptors keyed by graph: each shard executes on a pooled runner
	// session — in this process by default, in forked worker processes
	// under `rvx --dist-workers` — with byte-identical MultiResults either
	// way. The aggregate also carries each run's scheduler wakeup count —
	// the debug stat behind the percept-streaming work, surfaced in the
	// table notes.
	plan := &dist.Planner{}
	for _, c := range cases {
		agents := make([]dist.AgentDesc, len(c.starts))
		for i := range agents {
			agents[i] = dist.AgentDesc{Prog: dist.ProgDesc{Name: "universal"}, Start: c.starts[i], Appear: c.appear[i]}
		}
		plan.Add(c.g, c.g, dist.CaseDesc{Kind: dist.KindMulti, Agents: agents, Budget: c.budget})
	}
	results := runPlan(plan)
	var cl stic.Classifier
	for ci, c := range cases {
		res := results[ci].Multi
		if err := sim.GatherCheck(res); err != nil {
			t.Check(false, "%s: %v", c.g, err)
			continue
		}
		metAt := map[[2]int]uint64{}
		wasMet := map[[2]int]bool{}
		for _, m := range res.Meetings {
			key := [2]int{m.A, m.B}
			wasMet[key] = true
			metAt[key] = m.Round
		}
		for i := 0; i < len(c.starts); i++ {
			for j := i + 1; j < len(c.starts); j++ {
				pd := c.appear[j] - c.appear[i] // appear is non-decreasing in our cases
				rep := cl.Classify(stic.STIC{G: c.g, U: c.starts[i], V: c.starts[j], Delay: pd})
				key := [2]int{i, j}
				roundCell := "-"
				if wasMet[key] {
					roundCell = itoa(metAt[key])
				}
				t.AddRow(c.g.String(), fmt.Sprint(c.starts), fmt.Sprint(c.appear),
					fmt.Sprintf("(%d,%d)", i, j), pd, rep.Feasible, wasMet[key], roundCell)
				if rep.Feasible {
					t.Check(wasMet[key], "%s pair %v: feasible pairwise STIC did not meet", c.g, key)
				}
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("%s: gathered=%v (gathering is not guaranteed by the pairwise theorem; observed only); %d rounds simulated on %d scheduler wakeups.",
				c.g, res.Gathered, res.Rounds, results[ci].Wakeups))
	}
	t.Notes = append(t.Notes,
		"Agents are oblivious to each other until co-located, so each pair's execution is literally a two-agent run: the two-agent characterization transfers without modification.")
	return t
}
