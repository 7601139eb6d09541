package agent

import (
	"fmt"
	"strings"
)

// StepKind distinguishes trace entries.
type StepKind int

const (
	// StepMove records an edge traversal.
	StepMove StepKind = iota
	// StepWait records a block of waiting rounds.
	StepWait
)

// Step is one entry of a trajectory trace.
type Step struct {
	Kind StepKind
	// OutPort and EntryPort are set for StepMove: the port taken and the
	// port by which the new node was entered.
	OutPort   int
	EntryPort int
	// Rounds is the duration: 1 for a move, the wait length for a wait.
	Rounds uint64
}

// Trace is an agent's trajectory: the full action/percept history since
// its appearance, in its own clock (sim.SoloTrace records one). Two
// agents that met can exchange traces and run the paper's
// leader-election construction (package election).
type Trace struct {
	Steps []Step
}

// Clock returns the total rounds covered by the trace.
func (t *Trace) Clock() uint64 {
	var total uint64
	for _, s := range t.Steps {
		total += s.Rounds
	}
	return total
}

// Moves returns the number of edge traversals in the trace.
func (t *Trace) Moves() int {
	n := 0
	for _, s := range t.Steps {
		if s.Kind == StepMove {
			n++
		}
	}
	return n
}

// String renders a compact form like "0>1 0>0 .3 1>0" (out>entry, .k for
// k waited rounds).
func (t *Trace) String() string {
	var b strings.Builder
	for i, s := range t.Steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Kind == StepWait {
			fmt.Fprintf(&b, ".%d", s.Rounds)
		} else {
			fmt.Fprintf(&b, "%d>%d", s.OutPort, s.EntryPort)
		}
	}
	return b.String()
}
