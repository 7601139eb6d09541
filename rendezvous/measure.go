package rendezvous

import (
	"sync"

	"repro/agent"
	"repro/graph"
	"repro/sim"
)

// MeasureSymmRVDuration runs SymmRV(n, d, δ) for both agents of the STIC
// [(u,v), δ] and returns each agent's local clock at completion. It is
// intended for configurations that do not meet (e.g. δ below Shrink), so
// both programs run to completion; it returns nil if the agents met or
// the budget ran out first. With duration padding both readings equal
// SymmRVTime(n, d, δ) — experiment E5's check.
func MeasureSymmRVDuration(g *graph.Graph, u, v int, n, d, delta uint64) []uint64 {
	return measureDurations(g, u, v, delta, 3*SymmRVTime(n, d, delta)+delta,
		func(w agent.World) { symmRV(w, n, d, delta) })
}

// MeasureAsymmRVDuration is the AsymmRV analogue of
// MeasureSymmRVDuration; both readings must equal AsymmRVTime(n, δ).
func MeasureAsymmRVDuration(g *graph.Graph, u, v int, n, delta uint64) []uint64 {
	return measureDurations(g, u, v, delta, 3*AsymmRVTime(n, delta)+delta,
		func(w agent.World) { asymmRV(w, n, delta) })
}

// SoloDuration runs a terminating agent program alone on g (no partner,
// no meeting interference) and returns its local clock at completion. A
// procedure's duration depends only on the agent's own walk, so this
// measures exactly what the agent would take inside a two-agent run.
func SoloDuration(g *graph.Graph, start int, body agent.Program) uint64 {
	w := soloWorlds.Get().(*soloWorld)
	w.g, w.pos, w.deg, w.entry, w.clock = g, start, g.Degree(start), -1, 0
	body(w)
	clock := w.clock
	w.g = nil
	soloWorlds.Put(w)
	return clock
}

// soloWorlds recycles solo worlds, and with them their MoveSeq buffers,
// across SoloDuration calls (E13 makes 40 per table).
var soloWorlds = sync.Pool{New: func() any { return new(soloWorld) }}

// SoloUnpaddedSymmRVDuration measures the ablation's duration for a
// single start node.
func SoloUnpaddedSymmRVDuration(g *graph.Graph, start int, n, d, delta uint64) uint64 {
	return SoloDuration(g, start, func(w agent.World) { unpaddedSymmRV(w, n, d, delta) })
}

// SoloSymmRVDuration measures the padded procedure's duration for a
// single start node (always SymmRVTime(n,d,δ); asserted by tests).
func SoloSymmRVDuration(g *graph.Graph, start int, n, d, delta uint64) uint64 {
	return SoloDuration(g, start, func(w agent.World) { symmRV(w, n, d, delta) })
}

// soloWorld walks the graph directly — single-agent execution needs no
// scheduler.
type soloWorld struct {
	g       *graph.Graph
	pos     int
	deg     int
	entry   int
	clock   uint64
	entries []int // reusable MoveSeq result buffers (see the World contract)
	degs    []int
}

func (w *soloWorld) Degree() int    { return w.deg }
func (w *soloWorld) EntryPort() int { return w.entry }
func (w *soloWorld) Clock() uint64  { return w.clock }

func (w *soloWorld) Move(port int) int {
	if port < 0 || port >= w.deg {
		panic(agent.ErrBadPort{Port: port, Degree: w.deg})
	}
	to, ep := w.g.Succ(w.pos, port)
	w.pos, w.entry, w.deg = to, ep, w.g.Degree(to)
	w.clock++
	return ep
}

func (w *soloWorld) Wait(rounds uint64) { w.clock += rounds }

// MoveSeq steps a batched script directly against the graph — the native
// equivalent of agent.RunScript without per-move interface dispatch, with
// agent.ActionPort's resolution fused into a single adjacency-row access
// per move (the same fusion as the engine's burst step; the batched
// rendezvous procedures put every action through this loop, and
// BenchmarkViewWalkBatched drives it). The returned slices are the
// world's reusable buffers, per the World contract.
func (w *soloWorld) MoveSeq(actions []int) ([]int, []int) {
	if len(actions) == 0 {
		return nil, nil
	}
	entries, degs := scratchInts(&w.entries, len(actions)), scratchInts(&w.degs, len(actions))
	for i, a := range actions {
		if a != agent.ScriptWait {
			adj := w.g.Adj(w.pos)
			p, _ := agent.ActionPort(a, w.entry, len(adj))
			h := adj[p]
			w.pos, w.entry = h.To, h.ToPort
			w.deg = len(w.g.Adj(h.To))
		}
		w.clock++
		entries[i], degs[i] = w.entry, w.deg
	}
	return entries, degs
}

// measureDurations runs body for both agents and collects their local
// clocks after body returns. The agents are coroutines of the run's
// scheduler and never execute at the same time, so the appends need no
// lock.
func measureDurations(g *graph.Graph, u, v int, delta, budget uint64, body agent.Program) []uint64 {
	var durations []uint64
	prog := func(w agent.World) {
		body(w)
		durations = append(durations, w.Clock())
	}
	res := sim.Run(g, prog, u, v, delta, sim.Config{Budget: budget})
	if res.Outcome != sim.NeverMeet {
		return nil
	}
	return durations
}
