package stic

import (
	"fmt"

	"repro/graph"
	"repro/view"
)

// WordResult is the outcome of an exhaustive search over oblivious action
// words (wait or a port number per round, the same word executed by both
// agents with the STIC's delay).
type WordResult struct {
	// Found reports whether some word achieves rendezvous.
	Found bool
	// Word is a shortest rendezvous word when Found (ScriptWait = -1
	// denotes a wait), using the agent package's script conventions.
	Word []int
	// Rounds is the meeting round, counted from the earlier agent's start.
	Rounds int
	// Exhausted is true when the reachable state space was fully explored
	// without finding a meeting: a proof that no oblivious word of any
	// length achieves rendezvous. On port-homogeneous graphs this is a
	// proof of infeasibility over all deterministic algorithms.
	Exhausted bool
	// States is the number of distinct search states visited.
	States int
}

// searchState is a node of the word-search BFS: the earlier agent's
// position after t actions, the later agent's position after t-δ actions,
// and the queue of the most recent δ actions the later agent has yet to
// replay. The queue is encoded base (maxDeg+2) to keep states hashable.
type searchState struct {
	a, b  int
	queue uint64
	fill  uint8 // how many actions are queued (< δ only during warm-up)
}

// SearchObliviousWord searches breadth-first for a shortest oblivious word
// achieving rendezvous for the STIC, exploring at most maxStates distinct
// states. The action alphabet is {wait, 0, ..., degree-1} with the port
// applied modulo the current node's degree.
//
// Three outcomes: Found (with a shortest witness word), Exhausted (full
// closure without meeting — impossibility proof for oblivious words), or
// neither (state cap hit; inconclusive). Delays up to 20 are supported;
// beyond that the queue encoding would overflow.
func SearchObliviousWord(s STIC, maxStates int) (WordResult, error) {
	if s.Delay > 20 {
		return WordResult{}, fmt.Errorf("stic: delay %d too large for word search (max 20)", s.Delay)
	}
	g := s.G
	maxDeg := g.MaxDegree()
	base := uint64(maxDeg + 2) // actions 0..maxDeg-1, wait, plus sentinel room
	if pow(base, uint64(s.Delay)) == 0 {
		return WordResult{}, fmt.Errorf("stic: delay %d with degree %d overflows the queue encoding", s.Delay, maxDeg)
	}
	delta := int(s.Delay)

	type parentRef struct {
		prev   searchState
		action int
		ok     bool
	}
	start := searchState{a: s.U, b: s.V}
	parents := map[searchState]parentRef{start: {}}
	frontier := []searchState{start}
	// Meeting at round 0 (delay 0, same node) — degenerate.
	if delta == 0 && s.U == s.V {
		return WordResult{Found: true, Word: nil, Rounds: 0, States: 1}, nil
	}

	reconstruct := func(st searchState) []int {
		var rev []int
		for {
			p := parents[st]
			if !p.ok {
				break
			}
			rev = append(rev, p.action)
			st = p.prev
		}
		out := make([]int, len(rev))
		for i := range rev {
			out[i] = rev[len(rev)-1-i]
		}
		return out
	}

	actions := make([]int, 0, maxDeg+1)
	actions = append(actions, -1) // wait
	for p := 0; p < maxDeg; p++ {
		actions = append(actions, p)
	}

	step := func(pos, action int) int {
		if action < 0 {
			return pos
		}
		to, _ := g.Succ(pos, action%g.Degree(pos))
		return to
	}
	// encode action for queue storage: wait -> 0, port p -> p+1.
	enc := func(action int) uint64 {
		return uint64(action + 1)
	}
	dec := func(code uint64) int {
		return int(code) - 1
	}

	round := 0
	for len(frontier) > 0 {
		round++
		var next []searchState
		for _, st := range frontier {
			for _, act := range actions {
				var ns searchState
				if int(st.fill) < delta {
					// Warm-up: the later agent has not appeared; queue the
					// action.
					ns = searchState{
						a:     step(st.a, act),
						b:     st.b,
						queue: st.queue*base + enc(act),
						fill:  st.fill + 1,
					}
				} else if delta == 0 {
					ns = searchState{a: step(st.a, act), b: step(st.b, act)}
				} else {
					// Pop the oldest queued action for the later agent,
					// push the new one.
					div := pow(base, uint64(delta-1))
					oldest := dec(st.queue / div)
					ns = searchState{
						a:     step(st.a, act),
						b:     step(st.b, oldest),
						queue: (st.queue%div)*base + enc(act),
						fill:  st.fill,
					}
				}
				if _, seen := parents[ns]; seen {
					continue
				}
				parents[ns] = parentRef{prev: st, action: act, ok: true}
				if int(ns.fill) == delta && ns.a == ns.b {
					return WordResult{
						Found:  true,
						Word:   reconstruct(ns),
						Rounds: round,
						States: len(parents),
					}, nil
				}
				if len(parents) > maxStates {
					return WordResult{States: len(parents)}, nil
				}
				next = append(next, ns)
			}
		}
		frontier = next
	}
	return WordResult{Exhausted: true, States: len(parents)}, nil
}

func pow(b, e uint64) uint64 {
	r := uint64(1)
	for i := uint64(0); i < e; i++ {
		if r > 1<<58/b {
			return 0 // overflow marker
		}
		r *= b
	}
	return r
}

// SymmetricPairs returns all unordered symmetric pairs (u < v) of g —
// convenient for sweeping feasible and infeasible delays around Shrink.
func SymmetricPairs(g *graph.Graph) [][2]int {
	c := view.Classes(g)
	var out [][2]int
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if c[u] == c[v] {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// NonsymmetricPairs returns all unordered nonsymmetric pairs of g.
func NonsymmetricPairs(g *graph.Graph) [][2]int {
	c := view.Classes(g)
	var out [][2]int
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if c[u] != c[v] {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}
