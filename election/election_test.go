package election

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// runTraced executes the same program for both agents and returns the
// result and, after a meeting, each agent's trajectory up to it: the one
// it walks alone over the rounds it lived.
func runTraced(t *testing.T, g *graph.Graph, prog agent.Program, u, v int, delay uint64, budget uint64) (*agent.Trace, *agent.Trace, sim.Result) {
	t.Helper()
	res := sim.Run(g, prog, u, v, delay, sim.Config{Budget: budget})
	if res.Outcome != sim.Met {
		return nil, nil, res
	}
	return sim.SoloTrace(g, prog, u, res.MeetingRound), sim.SoloTrace(g, prog, v, res.MeetingRound-delay), res
}

func TestElectionAfterDelayedRendezvous(t *testing.T) {
	// K2 with delay 3 and "move every round": the earlier agent's longer
	// trace wins by the time rule.
	g := graph.TwoNode()
	ta, tb, res := runTraced(t, g, agent.MoveEveryRound, 0, 1, 3, 100)
	if res.Outcome != sim.Met {
		t.Fatalf("no meeting: %v", res.Outcome)
	}
	p, err := Decide(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if p.RoleA != Leader || p.RoleB != NonLeader {
		t.Fatalf("roles %v/%v, want leader/non-leader", p.RoleA, p.RoleB)
	}
	if p.DecidedBy != "time" {
		t.Fatalf("decided by %q, want time", p.DecidedBy)
	}
}

func TestElectionSimultaneousNonsymmetric(t *testing.T) {
	// Path-3 endpoints, delay 0, both move port 0 into the middle: they
	// meet at node 1 entering by ports 0 and 1 — the port rule decides,
	// and the agent from node 2 (entry port 1) leads.
	g := graph.Path(3)
	prog := agent.Script([]int{0})
	ta, tb, res := runTraced(t, g, prog, 0, 2, 0, 10)
	if res.Outcome != sim.Met {
		t.Fatalf("no meeting: %v", res.Outcome)
	}
	p, err := Decide(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if p.RoleA != NonLeader || p.RoleB != Leader {
		t.Fatalf("roles %v/%v, want non-leader/leader", p.RoleA, p.RoleB)
	}
	if p.DecidedBy != "ports" {
		t.Fatalf("decided by %q, want ports", p.DecidedBy)
	}
}

func TestElectionSymmetricConsistency(t *testing.T) {
	// Elect must pick the same winner regardless of argument order, for
	// traces from real meetings across several configurations.
	type caze struct {
		g     *graph.Graph
		prog  agent.Program
		u, v  int
		delay uint64
	}
	universal := rendezvous.UniversalRV()
	cases := []caze{
		{graph.TwoNode(), agent.MoveEveryRound, 0, 1, 1},
		{graph.TwoNode(), universal, 0, 1, 1},
		{graph.Path(3), universal, 0, 2, 0},
		{graph.Path(3), universal, 0, 2, 2},
	}
	for _, c := range cases {
		ta, tb, res := runTraced(t, c.g, c.prog, c.u, c.v, c.delay, 100_000_000)
		if res.Outcome != sim.Met {
			t.Fatalf("%s: no meeting", c.g)
		}
		p, err := Decide(ta, tb)
		if err != nil {
			t.Fatalf("%s: %v", c.g, err)
		}
		if p.RoleA == p.RoleB {
			t.Fatalf("%s: both agents share role %v", c.g, p.RoleA)
		}
	}
}

func TestElectionThenWaitingForMommy(t *testing.T) {
	// The full reduction loop: rendezvous -> election -> the elected pair
	// re-runs with leader/non-leader roles and meets again via
	// wait-for-Mommy from fresh positions.
	g := graph.Cycle(6)
	ta, tb, res := runTraced(t, g, rendezvous.UniversalRV(), 0, 3, 3, 1<<40)
	if res.Outcome != sim.Met {
		t.Fatalf("rendezvous failed: %v", res.Outcome)
	}
	p, err := Decide(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	leaderProg, nonLeaderProg := rendezvous.WaitForMommy(6)
	progA, progB := leaderProg, nonLeaderProg
	if p.RoleA != Leader {
		progA, progB = nonLeaderProg, leaderProg
	}
	res2 := sim.RunPrograms(g, progA, progB, 1, 4, 0,
		sim.Config{Budget: 4 * rendezvous.UXSRoundTrip(6)})
	if res2.Outcome != sim.Met {
		t.Fatalf("wait-for-Mommy after election failed: %v", res2.Outcome)
	}
}

func TestPortRuleUsesLastDifference(t *testing.T) {
	// Synthetic traces with equal clocks differing at two rounds: the
	// LAST difference decides, per the paper's construction.
	a := &agent.Trace{Steps: []agent.Step{
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 3, Rounds: 1}, // r1: a=3 > b=0
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 1, Rounds: 1}, // r2: equal
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 0, Rounds: 1}, // r3: a=0 < b=2
	}}
	b := &agent.Trace{Steps: []agent.Step{
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 0, Rounds: 1},
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 1, Rounds: 1},
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 2, Rounds: 1},
	}}
	role, err := Elect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if role != NonLeader {
		t.Fatalf("last difference (round 3, b larger) should make a the non-leader; got %v", role)
	}
	p, err := Decide(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.RoleB != Leader || p.DecidedBy != "ports" {
		t.Fatalf("pairing %+v", p)
	}
}

func TestPortRuleOverLongWaits(t *testing.T) {
	// Equal clocks across 2^40-round waits: Elect walks the steps, not
	// the rounds. A waited round perceives no entry port, so a move
	// against a wait is a difference the mover wins.
	const long = uint64(1) << 40
	move := func(entry int) agent.Step {
		return agent.Step{Kind: agent.StepMove, OutPort: 0, EntryPort: entry, Rounds: 1}
	}
	wait := func(rounds uint64) agent.Step { return agent.Step{Kind: agent.StepWait, Rounds: rounds} }
	for _, c := range []struct {
		name string
		a, b []agent.Step
		want Role
	}{
		{"move against a wait last", []agent.Step{move(1), wait(long), move(0)}, []agent.Step{move(1), wait(long + 1)}, Leader},
		{"ports before equal waits", []agent.Step{move(1), wait(long)}, []agent.Step{move(2), wait(long)}, NonLeader},
	} {
		a, b := &agent.Trace{Steps: c.a}, &agent.Trace{Steps: c.b}
		ra, errA := Elect(a, b)
		rb, errB := Elect(b, a)
		if errA != nil || errB != nil || ra != c.want || rb == ra {
			t.Fatalf("%s: Elect(a, b) = %v, %v; Elect(b, a) = %v, %v; want a %v", c.name, ra, errA, rb, errB, c.want)
		}
	}
}

func TestElectionClippedToMeeting(t *testing.T) {
	// UniversalRV on path-4 from (0, 1) with δ = 0 meets while an agent
	// is inside a wait. Each trajectory ends at the meeting round, so the
	// simultaneous start is settled by the ports, not by time — a rule
	// for different start times only.
	ta, tb, res := runTraced(t, graph.Path(4), rendezvous.UniversalRV(), 0, 1, 0, 1<<30)
	if res.Outcome != sim.Met {
		t.Fatalf("no meeting: %v", res.Outcome)
	}
	if ta.Clock() != res.MeetingRound || tb.Clock() != res.MeetingRound {
		t.Fatalf("traces cover %d and %d rounds, want the %d rounds to the meeting", ta.Clock(), tb.Clock(), res.MeetingRound)
	}
	p, err := Decide(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if p.DecidedBy != "ports" || p.RoleB != Leader {
		t.Fatalf("traced to round %d: %+v, want B to lead by ports", res.MeetingRound, p)
	}
}

func TestTimeRuleBeatsPorts(t *testing.T) {
	// A longer history wins even if the port comparison would go the
	// other way.
	longer := &agent.Trace{Steps: []agent.Step{
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 0, Rounds: 1},
		{Kind: agent.StepWait, Rounds: 5},
	}}
	shorter := &agent.Trace{Steps: []agent.Step{
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 3, Rounds: 1},
	}}
	role, err := Elect(longer, shorter)
	if err != nil || role != Leader {
		t.Fatalf("longer trace should lead: %v %v", role, err)
	}
	role, err = Elect(shorter, longer)
	if err != nil || role != NonLeader {
		t.Fatalf("shorter trace should follow: %v %v", role, err)
	}
}

func TestIndistinguishableTraces(t *testing.T) {
	// Identical traces (fabricated — cannot arise from a real meeting of
	// distinct starts) must be rejected.
	tr := &agent.Trace{Steps: []agent.Step{{Kind: agent.StepMove, OutPort: 0, EntryPort: 1, Rounds: 1}}}
	if _, err := Elect(tr, tr); err == nil {
		t.Fatal("identical traces accepted")
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := &agent.Trace{Steps: []agent.Step{
		{Kind: agent.StepMove, OutPort: 0, EntryPort: 1, Rounds: 1},
		{Kind: agent.StepWait, Rounds: 3},
		{Kind: agent.StepMove, OutPort: 2, EntryPort: 0, Rounds: 1},
	}}
	if tr.Clock() != 5 || tr.Moves() != 2 {
		t.Fatalf("clock %d moves %d", tr.Clock(), tr.Moves())
	}
	if tr.String() != "0>1 .3 2>0" {
		t.Fatalf("trace string %q", tr.String())
	}
}

func TestTraceCoalescesWaits(t *testing.T) {
	g := graph.TwoNode()
	prog := func(w agent.World) {
		w.Wait(5)
		w.Wait(7)
		w.Move(0)
	}
	tr := sim.SoloTrace(g, prog, 0, 100)
	if len(tr.Steps) != 2 {
		t.Fatalf("steps %v, want coalesced wait + move", tr.Steps)
	}
	if tr.Steps[0].Rounds != 12 {
		t.Fatalf("coalesced wait %d rounds", tr.Steps[0].Rounds)
	}
}
