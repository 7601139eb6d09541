package sim

import (
	"sync"

	"repro/agent"
	"repro/graph"
)

// Solo runs prog as a lone agent on g from start. It stops when prog
// returns, or after budget rounds (0 = none): a call that crosses the
// budget runs up to it and unwinds the program. It returns the agent's
// clock and node and, when record is non-nil, record with one action
// appended per round in the script alphabet: the port the agent left
// by, or agent.ScriptWait. No scheduler is needed, since an agent's
// percepts never depend on another agent; every World call is answered
// at once from the graph, and an unrecorded wait of any length costs
// O(1). Solo is safe for concurrent use.
func Solo(g *graph.Graph, prog agent.Program, start int, budget uint64, record []int) (clock uint64, node int, stream []int) {
	return solo(g, prog, start, budget, record, nil)
}

// SoloTrace returns prog's trajectory over its first rounds rounds alone
// on g from start, or up to its return if that comes first. An agent's
// trajectory up to a meeting is the one it walks alone over the rounds it
// lived, so this is what the paper's leader election compares (package
// election). SoloTrace(…, 0) is empty and runs nothing.
func SoloTrace(g *graph.Graph, prog agent.Program, start int, rounds uint64) *agent.Trace {
	tr := &agent.Trace{}
	if rounds > 0 { // Solo's budget 0 is none
		solo(g, prog, start, rounds, nil, tr)
	}
	return tr
}

// solo is Solo, also writing the agent's trajectory into tr when tr is
// non-nil.
func solo(g *graph.Graph, prog agent.Program, start int, budget uint64, record []int, tr *agent.Trace) (clock uint64, node int, stream []int) {
	w := soloWorlds.Get().(*soloWorld)
	w.g, w.pos, w.deg, w.entry, w.clock, w.budget, w.rec, w.tr = g, start, g.Degree(start), -1, 0, budget, record, tr
	if budget == 0 {
		w.budget = ^uint64(0)
	}
	defer func() {
		if r := recover(); r != nil {
			if _, stopped := r.(stopSentinel); !stopped {
				panic(r)
			}
		}
		clock, node, stream = w.clock, w.pos, w.rec
		w.g, w.rec, w.tr = nil, nil, nil
		soloWorlds.Put(w)
	}()
	prog(w)
	return
}

// soloWorlds recycles lone worlds, and with them their MoveSeq buffers.
var soloWorlds = sync.Pool{New: func() any { return new(soloWorld) }}

// soloWorld is the agent.World of a lone run. rec is the recorded
// stream and tr the trajectory, each nil when not written; entries and
// degs back MoveSeq's results (see the World contract).
type soloWorld struct {
	g                  *graph.Graph
	pos, deg, entry    int
	clock, budget      uint64
	rec, entries, degs []int
	tr                 *agent.Trace
}

func (w *soloWorld) Degree() int    { return w.deg }
func (w *soloWorld) EntryPort() int { return w.entry }
func (w *soloWorld) Clock() uint64  { return w.clock }

func (w *soloWorld) Move(port int) int {
	if w.clock == w.budget {
		panic(stopSentinel{})
	}
	if port < 0 || port >= w.deg {
		panic(agent.ErrBadPort{Port: port, Degree: w.deg})
	}
	to, ep := w.g.Succ(w.pos, port)
	w.pos, w.entry, w.deg = to, ep, w.g.Degree(to)
	w.clock++
	if w.rec != nil {
		w.rec = append(w.rec, port)
	}
	if w.tr != nil {
		w.tr.Steps = append(w.tr.Steps, agent.Step{Kind: agent.StepMove, OutPort: port, EntryPort: ep, Rounds: 1})
	}
	return ep
}

func (w *soloWorld) Wait(rounds uint64) {
	k := min(rounds, w.budget-w.clock)
	w.clock += k
	for i := uint64(0); w.rec != nil && i < k; i++ {
		w.rec = append(w.rec, agent.ScriptWait)
	}
	if tr := w.tr; tr != nil && k > 0 {
		// Consecutive waits coalesce into one step, of any length.
		if n := len(tr.Steps); n > 0 && tr.Steps[n-1].Kind == agent.StepWait {
			tr.Steps[n-1].Rounds += k
		} else {
			tr.Steps = append(tr.Steps, agent.Step{Kind: agent.StepWait, Rounds: k})
		}
	}
	if k < rounds {
		panic(stopSentinel{})
	}
}

// MoveSeq is agent.RunScript without its per-action interface calls,
// with agent.ActionPort's resolution fused into one adjacency-row access
// per move and the walk in locals, as in the engine's walk.
func (w *soloWorld) MoveSeq(actions []int) ([]int, []int) {
	if w.tr != nil {
		return agent.RunScript(w, actions) // a trajectory is written step by step
	}
	if len(actions) == 0 {
		return nil, nil
	}
	n := int(min(uint64(len(actions)), w.budget-w.clock))
	if cap(w.entries) < n {
		// Slices are stored back only when they change: a pointer store
		// on every call costs a GC write barrier while the GC marks.
		w.entries, w.degs = make([]int, n), make([]int, n)
	}
	entries, degs := w.entries[:n], w.degs[:n]
	g, pos, entry, deg, rec := w.g, w.pos, w.entry, w.deg, w.rec
	for i, a := range actions[:n] {
		if a != agent.ScriptWait {
			adj := g.Adj(pos)
			p, _ := agent.ActionPort(a, entry, len(adj))
			h := adj[p]
			pos, entry, deg = h.To, h.ToPort, len(g.Adj(h.To))
			a = p
		}
		if rec != nil {
			rec = append(rec, a)
		}
		entries[i], degs[i] = entry, deg
	}
	w.pos, w.entry, w.deg, w.clock = pos, entry, deg, w.clock+uint64(n)
	if rec != nil {
		w.rec = rec
	}
	if n < len(actions) {
		panic(stopSentinel{})
	}
	return entries, degs
}
