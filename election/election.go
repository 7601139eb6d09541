// Package election implements the paper's Section 1 equivalence between
// rendezvous and leader election for anonymous agents.
//
// Forward direction (election -> rendezvous): with roles assigned, the
// non-leader waits at its node while the leader explores — "waiting for
// Mommy" (rendezvous.WaitForMommy).
//
// Backward direction (rendezvous -> election), implemented here: after
// meeting, the agents compare their trajectories. The paper's rule:
// because the agents started at different nodes yet met, there must be a
// node they entered by different ports; taking the last such node before
// the meeting (possibly the meeting node itself), the agent that entered
// it by the larger port becomes the leader. With a start delay the
// trajectories have different lengths and the longer (earlier) one wins
// outright — time breaks the tie before ports are even consulted.
package election

import (
	"errors"
	"fmt"

	"repro/agent"
)

// Role is the outcome of an election for one agent.
type Role int

const (
	// Leader explores; NonLeader waits.
	Leader Role = iota
	NonLeader
)

func (r Role) String() string {
	if r == Leader {
		return "leader"
	}
	return "non-leader"
}

// ErrIndistinguishable is returned when the two trajectories are
// identical, which cannot happen for a genuine meeting of agents that
// started at different nodes (see the argument in the package comment);
// receiving it means the traces do not come from a valid meeting.
var ErrIndistinguishable = errors.New("election: trajectories identical — not a valid meeting of distinct starts")

// Elect runs the paper's construction on the two exchanged trajectories
// and returns the role of the first agent (the second gets the opposite).
// The decision is symmetric: Elect(a, b) and Elect(b, a) always agree on
// which trace leads.
func Elect(a, b *agent.Trace) (Role, error) {
	// Rule 0 — time: the earlier agent has the longer local history.
	ca, cb := a.Clock(), b.Clock()
	if ca > cb {
		return Leader, nil
	}
	if cb > ca {
		return NonLeader, nil
	}
	// Rule 1 — space: equal clocks (simultaneous start). Both agents
	// performed the same action kinds each round (same algorithm, and
	// their percept streams agree up to the first difference), so their
	// entry-port streams are aligned round by round. Find the last round
	// whose entry ports differ; the larger port leads. A waited round
	// perceives no port (-1), so one pass over the two step lists, a step
	// end at a time, finds it.
	var ta, tb, last uint64 // rounds before a.Steps[i] and b.Steps[j]
	larger := Leader
	for i, j := 0, 0; i < len(a.Steps) && j < len(b.Steps); {
		sa, sb := a.Steps[i], b.Steps[j]
		ea, eb := ta+sa.Rounds, tb+sb.Rounds
		pa, pb := -1, -1
		if sa.Kind == agent.StepMove && ea <= eb {
			pa = sa.EntryPort
		}
		if sb.Kind == agent.StepMove && eb <= ea {
			pb = sb.EntryPort
		}
		if pa != pb {
			last, larger = min(ea, eb), Leader
			if pa < pb {
				larger = NonLeader
			}
		}
		if ea <= eb {
			ta, i = ea, i+1
		}
		if eb <= ea {
			tb, j = eb, j+1
		}
	}
	if last == 0 {
		return 0, ErrIndistinguishable
	}
	return larger, nil
}

// Pairing describes the elected pair for reporting.
type Pairing struct {
	RoleA, RoleB Role
	// DecidedBy names the rule that settled it: "time" or "ports".
	DecidedBy string
}

// Decide elects and reports both roles. It errs if the traces are
// indistinguishable.
func Decide(a, b *agent.Trace) (Pairing, error) {
	ra, err := Elect(a, b)
	if err != nil {
		return Pairing{}, err
	}
	rb, err := Elect(b, a)
	if err != nil {
		return Pairing{}, err
	}
	if ra == rb {
		return Pairing{}, fmt.Errorf("election: inconsistent decision: both agents got role %v", ra)
	}
	decidedBy := "ports"
	if a.Clock() != b.Clock() {
		decidedBy = "time"
	}
	return Pairing{RoleA: ra, RoleB: rb, DecidedBy: decidedBy}, nil
}
