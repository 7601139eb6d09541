package sim

import (
	"fmt"
	"slices"

	"repro/agent"
	"repro/graph"
)

// MultiAgent describes one agent of a multi-agent run: its program, start
// node, and appearance round (the paper's model generalized from two
// agents to the gathering setting of its related work [25]).
type MultiAgent struct {
	Program agent.Program
	Start   int
	Appear  uint64
}

// Meeting records two agents occupying the same node in the same round.
type Meeting struct {
	A, B  int // agent indices, A < B
	Node  int
	Round uint64
}

// MultiResult reports a finished multi-agent run.
type MultiResult struct {
	// Gathered is true when all agents occupied one node simultaneously
	// at some round of the run; GatherNode and GatherRound record the
	// first such round.
	Gathered    bool
	GatherNode  int
	GatherRound uint64
	// Meetings lists the first meeting of every pair that met. The order
	// is fully deterministic: ascending by meeting round, and within one
	// round by (A, B) lexicographically — the order of the scheduler's
	// pairwise scan. The round-by-round reference engine the differential
	// tests keep produces byte-identical Meetings slices.
	Meetings []Meeting
	Rounds   uint64
	Moves    []uint64 // per-agent edge traversals
}

// MultiConfig tunes a multi-agent run.
type MultiConfig struct {
	// Budget is the maximum absolute round count (0 = DefaultBudget).
	Budget uint64
	// StopOnGather, when true, stops the run as soon as all agents
	// co-locate. The zero value keeps going: the run continues to the
	// budget collecting first meetings per pair (Gathered still records
	// whether and where gathering was first observed).
	StopOnGather bool
	// StopOnFirstMeeting stops at the first pairwise meeting.
	StopOnFirstMeeting bool
}

// RunMany executes k agents in lock-step on g through the scheduler
// loop RunPrograms runs for two (see runState.loop): bursts step
// scripted moves without resuming any program, hold waiting agents and
// skip mutual-wait stretches in O(1). Pairwise meetings are recorded
// (first meeting per pair, see MultiResult.Meetings for the order); the
// run ends on gathering (when StopOnGather is set), on the first meeting
// (when StopOnFirstMeeting is set), on the budget, or — when every
// program has terminated at scattered nodes — on proof that nothing
// further can happen. The engine-equivalence tests pin it to a retained
// round-by-round reference engine on randomized cases.
func (s *Session) RunMany(g *graph.Graph, agents []MultiAgent, cfg MultiConfig) MultiResult {
	if len(agents) == 0 {
		return MultiResult{}
	}
	m := &s.run
	m.begin(s, g, agents, cfg, nil)
	defer m.end(runKindMulti)
	m.loop()
	res := m.res
	res.Meetings = nil
	if len(m.res.Meetings) > 0 {
		res.Meetings = slices.Clone(m.res.Meetings)
	}
	res.Rounds, res.Moves = m.t, make([]uint64, len(agents))
	for a, r := range m.active {
		res.Moves[m.activeIdx[a]] = r.moves
	}
	return res
}

// GatherCheck validates MultiResult invariants: every meeting has A < B,
// each pair appears at most once, and no meeting is recorded after the
// run's final round (res.Rounds). The experiment harness and the
// differential tests run it over every multi-agent result.
func GatherCheck(res MultiResult) error {
	seen := map[[2]int]bool{}
	for _, m := range res.Meetings {
		if m.A >= m.B {
			return fmt.Errorf("sim: meeting pair out of order: %+v", m)
		}
		key := [2]int{m.A, m.B}
		if seen[key] {
			return fmt.Errorf("sim: duplicate meeting for pair %v", key)
		}
		seen[key] = true
		if m.Round > res.Rounds {
			return fmt.Errorf("sim: meeting after run end: %+v", m)
		}
	}
	return nil
}
