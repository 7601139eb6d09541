package sim

import (
	"fmt"
	"strings"

	"repro/agent"
	"repro/graph"
)

// Timeline records the first rounds of a two-agent run and renders them
// as an ASCII chart — one column per round, one row per agent, '·' before
// the later agent appears and '*' on meeting rounds. It exists for
// documentation, examples and debugging.
type Timeline struct {
	Rounds []TimelinePoint
	Result Result
}

// TimelinePoint is one recorded round.
type TimelinePoint struct {
	Round uint64
	PosA  int
	PosB  int // -1 before the later agent appears
}

// CaptureTimeline runs prog for both agents for at most maxRounds rounds
// and records every round up to the run's end, Result.Rounds+1 points.
// maxRounds must be positive. The run is fast-forwarded as any other; an
// agent's node at each round comes from its lone trajectory (SoloTrace)
// over the rounds it lived, since what an agent does before a meeting is
// what it does alone.
func CaptureTimeline(g *graph.Graph, prog agent.Program, u, v int, delay uint64, maxRounds uint64) *Timeline {
	tl := &Timeline{Result: Run(g, prog, u, v, delay, Config{Budget: maxRounds})}
	rounds := tl.Result.Rounds
	for t, posA := range lonePath(g, prog, u, rounds) {
		tl.Rounds = append(tl.Rounds, TimelinePoint{Round: uint64(t), PosA: posA, PosB: -1})
	}
	if rounds >= delay {
		for t, posB := range lonePath(g, prog, v, rounds-delay) {
			tl.Rounds[delay+uint64(t)].PosB = posB
		}
	}
	return tl
}

// lonePath returns prog's node alone on g from start at each of its
// first rounds+1 rounds; after prog returns, its agent stays put.
func lonePath(g *graph.Graph, prog agent.Program, start int, rounds uint64) []int {
	path := []int{start}
	for _, s := range SoloTrace(g, prog, start, rounds).Steps {
		node := path[len(path)-1]
		if s.Kind == agent.StepMove {
			node, _ = g.Succ(node, s.OutPort)
		}
		for range s.Rounds {
			path = append(path, node)
		}
	}
	for uint64(len(path)) <= rounds {
		path = append(path, path[len(path)-1])
	}
	return path
}

// String renders the chart.
func (tl *Timeline) String() string {
	if len(tl.Rounds) == 0 {
		return "(empty timeline)\n"
	}
	width := 0
	cell := func(pos int) string {
		if pos < 0 {
			return "·"
		}
		return fmt.Sprint(pos)
	}
	for _, p := range tl.Rounds {
		if w := len(cell(p.PosA)); w > width {
			width = w
		}
		if w := len(cell(p.PosB)); w > width {
			width = w
		}
	}
	var rowA, rowB, marks strings.Builder
	for _, p := range tl.Rounds {
		fmt.Fprintf(&rowA, " %*s", width, cell(p.PosA))
		fmt.Fprintf(&rowB, " %*s", width, cell(p.PosB))
		mark := " "
		if p.PosB >= 0 && p.PosA == p.PosB {
			mark = "*"
		}
		fmt.Fprintf(&marks, " %*s", width, mark)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "round:")
	for _, p := range tl.Rounds {
		fmt.Fprintf(&b, " %*d", width, p.Round)
	}
	fmt.Fprintf(&b, "\nA:    %s\nB:    %s\nmeet: %s\n", rowA.String(), rowB.String(), marks.String())
	if tl.Result.Outcome == Met {
		fmt.Fprintf(&b, "rendezvous at node %d, round %d\n", tl.Result.MeetingNode, tl.Result.MeetingRound)
	}
	return b.String()
}
