// Package async demonstrates the paper's concluding remark: in the
// asynchronous variant of the problem, time cannot be used to break
// symmetry, because the adversary controls the agents' speeds and
// relative starting lag. Only space (view asymmetry) can help, and with
// node-meeting semantics rendezvous cannot be guaranteed even on very
// simple graphs — which is why the asynchronous literature ([31] in the
// paper) relaxes meetings to the inside of edges.
//
// The model here: each agent's deterministic program induces a fixed
// stream of actions (its percepts depend only on its own walk, never on
// the other agent), read off a lone run by ExtractActions: one int per
// step in the agent script alphabet, the port the agent leaves by or
// agent.ScriptWait for a pause. An Adversary decides, step by step,
// which agents complete their next action. A meeting occurs when both
// agents stand at the same node between actions. The Synchronizing
// adversary — advance both agents in lock-step, nullifying any intended
// delay — defeats every program from symmetric starts, by exactly the
// Lemma 3.1 argument with δ = 0; the Lag adversary shows the same
// machinery can also reproduce any synchronous delay, so the
// asynchronous adversary is strictly stronger than the synchronous one.
package async

import (
	"repro/agent"
	"repro/graph"
	"repro/sim"
)

// ExtractActions runs the program as a lone agent on g from start for up
// to maxActions rounds (sim.Solo) and returns its action stream, one
// action per round in the agent script alphabet: the port the agent left
// by, or agent.ScriptWait for a round it stayed put (a Wait(k) is k of
// them). The stream ends early if the program returns; a cap of zero or
// less records none. This is sound because the paper's agents are
// oblivious to each other until they meet: the stream never depends on
// the adversary. The stream is written into dst's backing array when its
// capacity reaches maxActions, and into one fresh array of that capacity
// otherwise, so a caller extracting repeatedly passes the previous stream
// back as dst and allocates it once.
func ExtractActions(dst []int, g *graph.Graph, prog agent.Program, start int, maxActions int) []int {
	if maxActions <= 0 {
		return dst[:0]
	}
	if cap(dst) < maxActions {
		dst = make([]int, 0, maxActions)
	}
	_, _, stream := sim.Solo(g, prog, start, uint64(maxActions), dst[:0])
	return stream
}

// Adversary schedules the two action streams. Given how many actions each
// agent has completed, it says which agents advance in the next step; it
// must advance at least one agent with remaining actions.
type Adversary interface {
	Next(doneA, doneB, lenA, lenB int) (advanceA, advanceB bool)
}

// Synchronizing is the adversary from the paper's conclusion: both agents
// always advance together, so any intended start delay is nullified and
// symmetric starts remain split forever (node-meeting semantics).
type Synchronizing struct{}

func (Synchronizing) Next(doneA, doneB, lenA, lenB int) (bool, bool) { return true, true }

// Lag advances only the first agent for its first Delay steps and then
// both — reproducing exactly the synchronous execution with that delay.
// It shows the asynchronous adversary subsumes every synchronous one.
type Lag struct{ Delay int }

func (l Lag) Next(doneA, doneB, lenA, lenB int) (bool, bool) {
	if doneA < l.Delay {
		return true, false
	}
	return true, true
}

// Result of an asynchronous run.
type Result struct {
	Met  bool
	Node int
}

// Run replays the two action streams under the adversary, checking for a
// node meeting after every step (and at the start). The run ends on
// meeting or when both streams are exhausted.
func Run(g *graph.Graph, actionsA, actionsB []int, u, v int, adv Adversary) Result {
	posA, posB := u, v
	doneA, doneB := 0, 0
	if posA == posB {
		return Result{Met: true, Node: posA}
	}
	for doneA < len(actionsA) || doneB < len(actionsB) {
		advA, advB := adv.Next(doneA, doneB, len(actionsA), len(actionsB))
		advanced := false
		if advA && doneA < len(actionsA) {
			if a := actionsA[doneA]; a != agent.ScriptWait {
				posA, _ = g.Succ(posA, a%g.Degree(posA))
			}
			doneA++
			advanced = true
		}
		if advB && doneB < len(actionsB) {
			if b := actionsB[doneB]; b != agent.ScriptWait {
				posB, _ = g.Succ(posB, b%g.Degree(posB))
			}
			doneB++
			advanced = true
		}
		if !advanced {
			// Defensive: an adversary refusing to advance anything would
			// stall time forever; treat as end of run.
			break
		}
		if posA == posB {
			return Result{Met: true, Node: posA}
		}
	}
	return Result{}
}
