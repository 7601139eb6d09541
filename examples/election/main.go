// Election: the paper's Section 1 equivalence, end to end. Two anonymous
// software agents crawl a ring of database mirrors; after the universal
// algorithm brings them together, they exchange trajectories and run the
// paper's election rule (longer history wins — time again! — otherwise
// the last node entered by different ports, larger port leading). The
// elected pair then re-runs as leader/non-leader: the non-leader waits,
// the leader sweeps the ring ("waiting for Mommy").
//
//	go run ./examples/election
package main

import (
	"fmt"
	"log"

	"repro/agent"
	"repro/election"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

func main() {
	ring := graph.Cycle(6)
	u, v, delay := 0, 3, uint64(3)
	fmt.Printf("network: %s; agents injected at mirrors %d and %d, %d rounds apart\n\n",
		ring, u, v, delay)

	// Phase 1: rendezvous with zero knowledge.
	prog := rendezvous.UniversalRV()
	res := sim.Run(ring, prog, u, v, delay, sim.Config{Budget: 1 << 44})
	if res.Outcome != sim.Met {
		log.Fatalf("rendezvous failed: %v", res.Outcome)
	}
	// Neither agent perceives the other, so each one's trajectory up to
	// the meeting is the one it walks alone over the rounds it lived.
	ta := sim.SoloTrace(ring, prog, u, res.MeetingRound)
	tb := sim.SoloTrace(ring, prog, v, res.MeetingRound-delay)
	fmt.Printf("rendezvous at mirror %d, %d rounds after the later agent appeared\n",
		res.MeetingNode, res.TimeFromLater)
	fmt.Printf("trajectory lengths: earlier %d rounds (%d hops), later %d rounds (%d hops)\n\n",
		ta.Clock(), ta.Moves(), tb.Clock(), tb.Moves())

	// Phase 2: leader election from the exchanged trajectories.
	p, err := election.Decide(ta, tb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("election decided by %s: earlier agent is %v, later agent is %v\n\n",
		p.DecidedBy, p.RoleA, p.RoleB)

	// Phase 3: with roles assigned, rendezvous reduces to exploration.
	leader, nonLeader := rendezvous.WaitForMommy(uint64(ring.N()))
	progA, progB := leader, nonLeader
	if p.RoleA != election.Leader {
		progA, progB = nonLeader, leader
	}
	res2 := sim.RunPrograms(ring, progA, progB, 5, 2, 0,
		sim.Config{Budget: 4 * rendezvous.UXSRoundTrip(uint64(ring.N()))})
	fmt.Printf("waiting-for-Mommy from fresh positions (5, 2): %s at mirror %d after %d rounds\n\n",
		res2.Outcome, res2.MeetingNode, res2.TimeFromLater)

	// Bonus: the two-node intro example as a timeline.
	fmt.Println("the paper's intro example (K2, delay 3, move every round):")
	tl := sim.CaptureTimeline(graph.TwoNode(), agent.MoveEveryRound, 0, 1, 3, 8)
	fmt.Print(tl.String())
}
