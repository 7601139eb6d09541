package experiments

import (
	"fmt"

	"repro/agent"
	"repro/election"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// E14 implements the paper's Section 1 equivalence loop: rendezvous ->
// leader election (compare trajectories; last node entered by different
// ports, larger port leads; a longer local history — the earlier agent —
// wins outright) -> rendezvous again via "waiting for Mommy" with the
// elected roles.
func E14() *Table {
	t := &Table{
		ID:       "E14",
		Title:    "Leader election from rendezvous trajectories",
		PaperRef: "Section 1 (rendezvous <-> leader election equivalence)",
		Columns:  []string{"graph", "pair", "δ", "met", "decided by", "leader", "mommy re-meet"},
	}
	type caze struct {
		g     *graph.Graph
		prog  agent.Program
		u, v  int
		delta uint64
	}
	universal := rendezvous.UniversalRV()
	cases := []caze{
		{graph.TwoNode(), agent.MoveEveryRound, 0, 1, 1},
		{graph.TwoNode(), universal, 0, 1, 2},
		{graph.Path(3), agent.Script([]int{0}), 0, 2, 0},
		{graph.Path(3), universal, 0, 2, 0},
		{graph.Cycle(6), universal, 0, 3, 3},
	}
	// Each case's whole pipeline — rendezvous run, election from the
	// trajectories, wait-for-Mommy re-meet — executes on the sweep
	// scheduler, with both simulator runs on the worker's pooled session.
	type outcome struct {
		res, again sim.Result
		p          election.Pairing
		electErr   error
	}
	outcomes := sim.Sweep(cases, 0, func(c caze) any { return c.g }, func(sc *sim.Scratch, c caze) outcome {
		var o outcome
		o.res = sc.Session().Run(c.g, c.prog, c.u, c.v, c.delta, sim.Config{Budget: 1 << 44})
		if o.res.Outcome != sim.Met {
			return o
		}
		// An agent's trajectory up to the meeting is the one it walks
		// alone over the rounds it lived.
		ta := sim.SoloTrace(c.g, c.prog, c.u, o.res.MeetingRound)
		tb := sim.SoloTrace(c.g, c.prog, c.v, o.res.MeetingRound-c.delta)
		p, err := election.Decide(ta, tb)
		if err != nil {
			o.electErr = err
			return o
		}
		o.p = p

		// Close the loop: run wait-for-Mommy with the elected roles from
		// fresh positions.
		leader, nonLeader := rendezvous.WaitForMommy(uint64(c.g.N()))
		progA, progB := leader, nonLeader
		if p.RoleA != election.Leader {
			progA, progB = nonLeader, leader
		}
		o.again = sc.Session().RunPrograms(c.g, progA, progB, c.u, c.v, 0,
			sim.Config{Budget: 4 * rendezvous.UXSRoundTrip(uint64(c.g.N()))})
		return o
	})
	for i, c := range cases {
		o := outcomes[i]
		t.Check(o.res.Outcome == sim.Met, "%s δ=%d: no meeting (%v)", c.g, c.delta, o.res.Outcome)
		if o.res.Outcome != sim.Met {
			continue
		}
		if o.electErr != nil {
			t.Check(false, "%s δ=%d: election failed: %v", c.g, c.delta, o.electErr)
			continue
		}
		p := o.p
		t.Check(p.RoleA != p.RoleB, "%s: both agents share a role", c.g)
		// With a positive delay the earlier agent must win by time; a
		// simultaneous start is settled by the ports.
		if c.delta > 0 {
			t.Check(p.DecidedBy == "time" && p.RoleA == election.Leader,
				"%s δ=%d: expected the earlier agent to lead by time, got %v/%s", c.g, c.delta, p.RoleA, p.DecidedBy)
		} else {
			t.Check(p.DecidedBy == "ports", "%s δ=0: expected the ports to decide, got %s", c.g, p.DecidedBy)
		}
		t.Check(o.again.Outcome == sim.Met, "%s: wait-for-Mommy re-meet failed (%v)", c.g, o.again.Outcome)

		leaderCell := "A (earlier)"
		if p.RoleA != election.Leader {
			leaderCell = "B (later)"
		}
		t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), c.delta,
			true, p.DecidedBy, leaderCell, o.again.Outcome == sim.Met)
	}
	t.Notes = append(t.Notes,
		"'decided by time' = the trajectories have different lengths (the earlier agent ran longer before the meeting); 'ports' = simultaneous start, settled by the paper's last-differing-entry-port rule.",
		"The final column re-runs the pair with elected roles: non-leader waits, leader explores via the UXS — the 'waiting for Mommy' reduction.")
	return t
}
