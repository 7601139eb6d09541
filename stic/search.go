package stic

import (
	"fmt"

	"repro/graph"
	"repro/view"
)

// WordResult is the outcome of an exhaustive search over oblivious action
// words (wait or a port number per round, the same word executed by every
// agent with the STIC's delay).
type WordResult struct {
	// Found reports whether some word achieves rendezvous (for a family,
	// of every pair).
	Found bool
	// Word is a shortest rendezvous word when Found (ScriptWait = -1
	// denotes a wait), using the agent package's script conventions.
	Word []int
	// Rounds is the meeting round, counted from the earlier agent's start;
	// for a family, the round by which the LAST pair has met.
	Rounds int
	// Exhausted is true when the reachable state space was fully explored
	// without finding a meeting: a proof that no oblivious word of any
	// length achieves rendezvous. On port-homogeneous graphs this is a
	// proof of infeasibility over all deterministic algorithms.
	Exhausted bool
	// States is the number of distinct search states visited.
	States int
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
	return searchWord([]STIC{s}, maxStates)
}

// maxFamily bounds the later starts of one word search: a search state
// holds every later agent's position.
const maxFamily = 8

// wordState is a node of the word-search BFS: the queue of the most
// recent δ actions the later agents have yet to replay (encoded base
// maxDeg+2 to keep states hashable), the earlier agent's position after
// t actions, the later agents' positions after t-δ actions (the first k
// of bs) and the mask of later agents the earlier one has met.
type wordState struct {
	queue uint64
	a     int32
	bs    [maxFamily]int32
	fill  uint8 // how many actions are queued (< δ only during warm-up)
	met   uint8
}

// searchWord is the BFS behind both searches: a shortest word that brings
// the earlier agent together with the later agent of every STIC of the
// family — one graph, earlier start and delay, at most maxFamily later
// starts. The earlier agent is the same across the family, so one state
// tracks it once.
func searchWord(family []STIC, maxStates int) (WordResult, error) {
	g, delay, k := family[0].G, family[0].Delay, len(family)
	maxDeg := g.MaxDegree()
	base := uint64(maxDeg + 2) // actions 0..maxDeg-1, wait, plus sentinel room
	if pow(base, delay) == 0 {
		return WordResult{}, fmt.Errorf("stic: delay %d with degree %d overflows the queue encoding", delay, maxDeg)
	}
	delta := int(delay)
	allMet := uint8(1<<k - 1)
	start := wordState{a: int32(family[0].U)}
	for i, s := range family {
		start.bs[i] = int32(s.V)
		// Meeting at round 0 (delay 0, same node) — degenerate.
		if delta == 0 && s.V == s.U {
			start.met |= 1 << i
		}
	}
	if start.met == allMet {
		return WordResult{Found: true, States: 1}, nil
	}

	type parentRef struct {
		prev   wordState
		action int
		ok     bool
	}
	parents := map[wordState]parentRef{start: {}}
	frontier := []wordState{start}

	reconstruct := func(st wordState) []int {
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
	step := func(pos int32, action int) int32 {
		if action < 0 {
			return pos
		}
		to, _ := g.Succ(int(pos), action%g.Degree(int(pos)))
		return int32(to)
	}
	// The queue stores a wait as 0 and port p as p+1, its oldest action
	// in the top digit, of place value div (δ > 0).
	div := pow(base, delay) / base

	round := 0
	for len(frontier) > 0 {
		round++
		var next []wordState
		for _, st := range frontier {
			for _, act := range actions {
				ns := st
				ns.a = step(st.a, act)
				if int(st.fill) < delta {
					// Warm-up: the later agents have not appeared; queue
					// the action.
					ns.queue = st.queue*base + uint64(act+1)
					ns.fill++
				} else {
					// The later agents take the oldest queued action (this
					// one at δ = 0), and this one joins the queue.
					later := act
					if delta > 0 {
						later = int(st.queue/div) - 1
						ns.queue = (st.queue%div)*base + uint64(act+1)
					}
					for i := range k {
						ns.bs[i] = step(st.bs[i], later)
					}
				}
				if int(ns.fill) == delta {
					for i := range k {
						if ns.a == ns.bs[i] {
							ns.met |= 1 << i
						}
					}
				}
				if _, seen := parents[ns]; seen {
					continue
				}
				parents[ns] = parentRef{prev: st, action: act, ok: true}
				if ns.met == allMet {
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
