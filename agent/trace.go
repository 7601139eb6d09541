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
// its appearance, in its own clock. Two agents that met can exchange
// traces and run the paper's leader-election construction (package
// election).
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

// EntryPortAt returns the entry port perceived at round r (the port of
// the move that ended at round r), or -1 if the agent waited into or
// appeared at that round.
func (t *Trace) EntryPortAt(r uint64) int {
	var clock uint64
	for _, s := range t.Steps {
		clock += s.Rounds
		if clock == r && s.Kind == StepMove {
			return s.EntryPort
		}
		if clock >= r {
			break
		}
	}
	return -1
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

// tracingWorld wraps a World and appends every action to a Trace.
type tracingWorld struct {
	World
	trace *Trace
}

func (w *tracingWorld) Move(port int) int {
	entry := w.World.Move(port)
	w.trace.Steps = append(w.trace.Steps, Step{Kind: StepMove, OutPort: port, EntryPort: entry, Rounds: 1})
	return entry
}

// MoveSeq degrades to per-action execution so that every scripted move
// and wait lands in the trace individually. This is load-bearing, not
// just simple: a run that ends mid-script (the scheduler aborts the
// program at the meeting) must leave a trace that extends exactly to the
// last completed round — election.Decide compares trajectory ends — and
// a batched submission would lose the partial script's steps, since its
// grant never reaches the program. Per-action execution records each
// step as it completes, whatever round the run is cut at.
func (w *tracingWorld) MoveSeq(actions []int) []int { return RunScript(w, actions) }

// MoveSeqDegrees degrades the same way; the degree stream carries no
// action of its own, so the trace is identical to the MoveSeq form.
func (w *tracingWorld) MoveSeqDegrees(actions []int) ([]int, []int) {
	return RunScriptDegrees(w, actions)
}

func (w *tracingWorld) Wait(rounds uint64) {
	if rounds == 0 {
		return
	}
	w.World.Wait(rounds)
	w.recordWait(rounds)
}

// recordWait appends waited rounds, coalescing consecutive waits so
// traces stay compact even for the padding-heavy algorithms.
func (w *tracingWorld) recordWait(rounds uint64) {
	if n := len(w.trace.Steps); n > 0 && w.trace.Steps[n-1].Kind == StepWait {
		w.trace.Steps[n-1].Rounds += rounds
		return
	}
	w.trace.Steps = append(w.trace.Steps, Step{Kind: StepWait, Rounds: rounds})
}

// Traced wraps a program so that its actions are recorded into trace.
// The trace is written by the running program; read it only after the
// simulation has returned, by which time the simulator has let the
// program act on every grant it earned.
func Traced(prog Program, trace *Trace) Program {
	return func(w World) {
		prog(&tracingWorld{World: w, trace: trace})
	}
}
