package sim

import (
	"fmt"

	"repro/agent"
	"repro/graph"
)

// Outcome classifies how a run ended.
type Outcome int

const (
	// Met means the agents occupied the same node in the same round.
	Met Outcome = iota
	// BudgetExhausted means the round budget ran out first.
	BudgetExhausted
	// NeverMeet means both programs terminated at different nodes, so no
	// future meeting is possible.
	NeverMeet
)

func (o Outcome) String() string {
	switch o {
	case Met:
		return "met"
	case BudgetExhausted:
		return "budget-exhausted"
	case NeverMeet:
		return "never-meet"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Result reports a finished run.
type Result struct {
	Outcome      Outcome
	MeetingNode  int    // valid when Outcome == Met
	MeetingRound uint64 // absolute round of the meeting (0 = earlier start)
	// TimeFromLater is the paper's cost measure: rounds between the
	// appearance of the later agent and the meeting.
	TimeFromLater  uint64
	Rounds         uint64 // absolute rounds elapsed when the run stopped
	MovesA, MovesB uint64 // edge traversals actually performed
}

// Config tunes a run.
type Config struct {
	// Budget is the maximum number of absolute rounds to simulate.
	// Zero selects DefaultBudget.
	Budget uint64
	// Observer, when non-nil, is called once per simulated round with the
	// positions at that round (posB == -1 before the later agent appears).
	// Setting an observer disables wait fast-forwarding, so only use it
	// with small budgets.
	Observer func(round uint64, posA, posB int)
}

// DefaultBudget is the round budget used when Config.Budget is zero.
const DefaultBudget = 1 << 32

// Run executes the same program for both agents — the paper's model of
// identical deterministic anonymous agents — from starts u and v, with the
// later agent appearing delay rounds after the earlier one.
func Run(g *graph.Graph, prog agent.Program, u, v int, delay uint64, cfg Config) Result {
	return RunPrograms(g, prog, prog, u, v, delay, cfg)
}

// RunPrograms executes possibly different programs for the two agents;
// used by the oracle baselines (e.g. wait-for-Mommy, where leader election
// is assumed already done). It creates and discards a one-shot runner
// session; callers with many runs should reuse one Session (in sweeps,
// via Scratch.Session).
func RunPrograms(g *graph.Graph, progA, progB agent.Program, u, v int, delay uint64, cfg Config) Result {
	var s Session
	defer s.Close()
	return s.RunPrograms(g, progA, progB, u, v, delay, cfg)
}

// RunPrograms is the session-pooled form of the package-level
// RunPrograms, and the two-agent engine loop itself.
func (s *Session) RunPrograms(g *graph.Graph, progA, progB agent.Program, u, v int, delay uint64, cfg Config) Result {
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	s.resetStats()
	ra := s.acquire(g, progA, u)
	var rb *runner // started when the later agent appears
	defer func() {
		publishRunStats(&s.stats, runKindPair)
		s.release(ra)
		if rb != nil {
			s.release(rb)
		}
	}()

	t := uint64(0)
	for {
		ra.fetch()
		if t >= delay && rb == nil {
			rb = s.acquire(g, progB, v)
		}
		if rb != nil {
			rb.fetch()
		}
		if cfg.Observer != nil {
			posB := -1
			if rb != nil {
				posB = rb.pos
			}
			cfg.Observer(t, ra.pos, posB)
		}
		if rb != nil && ra.pos == rb.pos {
			return Result{
				Outcome:       Met,
				MeetingNode:   ra.pos,
				MeetingRound:  t,
				TimeFromLater: t - delay,
				Rounds:        t,
				MovesA:        ra.moves,
				MovesB:        rb.moves,
			}
		}
		if ra.state == stDone && rb != nil && rb.state == stDone {
			return Result{Outcome: NeverMeet, Rounds: t, MovesA: ra.moves, MovesB: rb.moves}
		}
		if t >= budget {
			res := Result{Outcome: BudgetExhausted, Rounds: t, MovesA: ra.moves}
			if rb != nil {
				res.MovesB = rb.moves
			}
			return res
		}

		// Tight lock-step loop: while both agents are executing scripted
		// moves, step the positions directly — no program resumes, no
		// wakeups — with the same per-round meeting detection
		// and budget accounting as the general path below. Degree mode is
		// fixed between fetches, so the plain case (no degree stream on
		// either script — the overwhelming majority of rounds) runs the
		// step bodies fused inline, the same burst-loop fusion as
		// RunMany's k-agent engine (keep in sync with
		// runner.scriptStep): at this loop's intensity the
		// per-runner call overhead is measurable.
		if cfg.Observer == nil && rb != nil {
			stepped := false
			if ra.scriptDegs == nil && rb.scriptDegs == nil {
				for ra.scriptMoveReady() && rb.scriptMoveReady() && t < budget {
					adj := ra.g.Adj(ra.pos)
					p, _ := agent.ActionPort(ra.script[ra.scriptAt], ra.entry, len(adj))
					h := adj[p]
					ra.pos, ra.entry = h.To, h.ToPort
					ra.moves++
					ra.scriptEntries[ra.scriptAt] = h.ToPort
					ra.scriptAt++
					if ra.scriptAt == ra.segEnd {
						ra.endSeg()
					}
					adj = rb.g.Adj(rb.pos)
					p, _ = agent.ActionPort(rb.script[rb.scriptAt], rb.entry, len(adj))
					h = adj[p]
					rb.pos, rb.entry = h.To, h.ToPort
					rb.moves++
					rb.scriptEntries[rb.scriptAt] = h.ToPort
					rb.scriptAt++
					if rb.scriptAt == rb.segEnd {
						rb.endSeg()
					}
					t++
					stepped = true
					if ra.pos == rb.pos {
						return Result{
							Outcome:       Met,
							MeetingNode:   ra.pos,
							MeetingRound:  t,
							TimeFromLater: t - delay,
							Rounds:        t,
							MovesA:        ra.moves,
							MovesB:        rb.moves,
						}
					}
				}
			} else {
				for ra.scriptMoveReady() && rb.scriptMoveReady() && t < budget {
					ra.scriptStep()
					rb.scriptStep()
					t++
					stepped = true
					if ra.pos == rb.pos {
						return Result{
							Outcome:       Met,
							MeetingNode:   ra.pos,
							MeetingRound:  t,
							TimeFromLater: t - delay,
							Rounds:        t,
							MovesA:        ra.moves,
							MovesB:        rb.moves,
						}
					}
				}
			}
			if stepped {
				continue
			}
		}

		// Fast-forward while nothing can change: both agents waiting (or
		// done / not yet present). Meetings cannot occur inside the skip
		// because positions are static and were just checked unequal.
		skip := budget - t
		if cfg.Observer != nil {
			skip = 1
		}
		if t < delay {
			if d := delay - t; d < skip {
				skip = d
			}
		}
		if s := ra.maxSkip(); s < skip {
			skip = s
		}
		if rb != nil {
			if s := rb.maxSkip(); s < skip {
				skip = s
			}
		}
		if skip < 1 {
			skip = 1
		}
		ra.advance(skip)
		if rb != nil {
			rb.advance(skip)
		}
		t += skip
	}
}
