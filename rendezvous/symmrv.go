package rendezvous

import (
	"fmt"

	"repro/agent"
	"repro/uxs"
)

// NewSymmRV returns the paper's Procedure SymmRV(n, d, δ) (Algorithm 1) as
// an agent program: follow the application R(u) of the UXS Y(n), executing
// Explore(u_i, d, δ) at every node of the walk, then backtrack to the
// start. By Lemma 3.2, two agents at symmetric positions u, v of a graph
// of size n that start with delay δ meet during its execution, provided
// d = Shrink(u,v) and δ >= d.
//
// The program runs for exactly SymmRVTime(n, d, δ) rounds (Lemma 3.3 with
// equality, thanks to duration padding) and ends at its start node.
//
// It returns an error when the parameters are out of range (d must satisfy
// 1 <= d <= δ and d < n, since Shrink is a distance in the graph) or when
// the padded duration would saturate RoundCap.
func NewSymmRV(n, d, delta uint64) (agent.Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("rendezvous: SymmRV requires n >= 2, got %d", n)
	}
	if d < 1 || d >= n {
		return nil, fmt.Errorf("rendezvous: SymmRV requires 1 <= d < n, got d=%d n=%d", d, n)
	}
	if delta < d {
		return nil, fmt.Errorf("rendezvous: SymmRV requires δ >= d, got δ=%d d=%d", delta, d)
	}
	if SymmRVTime(n, d, delta) >= RoundCap {
		return nil, fmt.Errorf("rendezvous: SymmRV(n=%d,d=%d,δ=%d) duration saturates RoundCap", n, d, delta)
	}
	return func(w agent.World) { symmRV(w, n, d, delta) }, nil
}

// symmRV is the internal body shared with UniversalRV; the convenience
// form allocates a fresh scratch.
func symmRV(w agent.World, n, d, delta uint64) {
	var s rvScratch
	symmRVWith(w, n, d, delta, &s)
}

func symmRVWith(w agent.World, n, d, delta uint64, s *rvScratch) {
	// The procedure body (UXS walk steps, cached replays, duration pads)
	// counts as symmRV; the per-node explores re-tag themselves.
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseSymmRV))
	y := uxs.Generate(int(n))

	// The walk R(u) is deterministic from the agent's home node, and
	// UniversalRV always enters SymmRV at home (every procedure returns
	// there), so the degree and entry-port sequences along the walk are
	// identical every time size hypothesis n recurs. Once learned they
	// make the whole d = 1 procedure percept-free — enumeration at a
	// node of known degree needs no new observations — and it replays as
	// chunked scripts: a handful of scheduler wakeups instead of one per
	// walk node.
	if d == 1 {
		if walk, ok := s.symCache[n]; ok {
			replaySymmRV1(w, y, n, delta, walk, s)
			return
		}
	}

	// Explore at u0, then step to u1 = succ(u0, 0); then, following the
	// UXS from u_i entered by port q, explore and leave by
	// (q + a_i) mod d(u_i). Each Explore and the walk step after it fuse
	// into one script where possible (exploreThenMove); the final
	// backtrack batches into one script. The walk's
	// degree-prefix bookkeeping — degs[i], recorded for the replay
	// cache — reads straight from each grant's degree stream instead of
	// interleaving w.Degree() calls between scripts.
	degs := append(scratchInts(&s.symDegs, len(y)+2)[:0], w.Degree())
	entry, dcur := exploreThenMove(w, n, d, delta, s, 0)
	entries := append(scratchInts(&s.symEntries, len(y)+1)[:0], entry)
	degs = append(degs, dcur)

	for _, a := range y {
		p := (entry + a) % dcur
		entry, dcur = exploreThenMove(w, n, d, delta, s, p)
		entries = append(entries, entry)
		degs = append(degs, dcur)
	}
	exploreWith(w, n, d, delta, s) // the walk's last node gets its Explore too

	if _, seen := s.symCache[n]; !seen {
		if s.symCache == nil {
			s.symCache = map[uint64]symmWalk{}
		}
		s.symCache[n] = symmWalk{
			degs:    append([]int(nil), degs...),
			entries: append([]int(nil), entries...),
		}
	}
	s.symDegs = degs

	// Go back to u0 along the reverse of R(u), as one batched script.
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	agent.RunSeq(w, entries)
	s.symEntries = entries // keep the grown buffer for the next phase
}

// symmWalk caches what one SymmRV learned about the walk R(u) from the
// agent's home node at size hypothesis n: degs[i] is the degree of walk
// node u_i (0 <= i <= M+1) and entries[i-1] the port by which the walk
// enters u_i. Valid for every later SymmRV at the same n because the
// walk is deterministic and always starts at home.
type symmWalk struct {
	degs    []int
	entries []int
}

// replaySymmRV1 plays SymmRV(n, 1, δ) as a percept-free action stream
// against a cached walk: per node, the Explore(·, 1, δ) enumeration
// ports with their padding, then the walk step; finally the reverse
// path home. Identical rounds and positions to the learning pass —
// only the script boundaries differ (chunked, with long pads left to
// the scheduler's wait fast-forward).
func replaySymmRV1(w agent.World, y uxs.Sequence, n, delta uint64, walk symmWalk, s *rvScratch) {
	budget := PathBudget(n, 1)
	pad := delta - 1
	perIteration := satAdd(1, delta)
	st := scriptStream{w: w, buf: s.symStream[:0]}
	for i, deg := range walk.degs {
		// Explore(u_i, 1, δ): out port p and straight back, pad after
		// each iteration, then the duration-padding trailer — the
		// appendExplore1 shape, emitted through the stream so long pads
		// stay waits instead of materialized ScriptWait runs.
		iters := uint64(deg)
		if budget < iters {
			iters = budget
		}
		for p := uint64(0); p < iters; p++ {
			st.act(int(p))
			st.act(agent.Rel(0))
			st.wait(pad)
		}
		st.wait(satMul(budget-iters, perIteration))
		// The walk step: port 0 out of u_0, the UXS rule afterwards.
		if i == 0 {
			st.act(0)
		} else if i-1 < len(y) {
			st.act((walk.entries[i-1] + y[i-1]) % walk.degs[i])
		}
	}
	// Reverse path home.
	for j := len(walk.entries) - 1; j >= 0; j-- {
		st.act(walk.entries[j])
	}
	st.flush()
	s.symStream = st.buf[:0]
}

// scriptStream accumulates a percept-free action stream — submitted via
// agent.RunSeq in bounded script chunks — in which waits of any length
// are single SeqWait actions the scheduler consumes in O(1) (a pad or a
// schedule gap costs one slot of the chunk, never materialized rounds
// and never a chunk split), and repeated action blocks are SeqRepeat
// blocks the scheduler replays. chunk is the flush threshold (0 selects
// maxExploreScript). open marks a chunk that ends inside a block: the
// block whose SeqRepeat is buf[mark], of copies of last. A plain action
// appended there would join the block, so streams put a wait between.
type scriptStream struct {
	w     agent.World
	buf   []int
	chunk int
	open  bool
	mark  int
	last  []int
}

func (st *scriptStream) limit() int {
	if st.chunk > 0 {
		return st.chunk
	}
	return maxExploreScript
}

func (st *scriptStream) act(a int) {
	st.buf = append(st.buf, a)
	if len(st.buf) >= st.limit() {
		st.flush()
	}
}

// block appends reps copies of actions as SeqRepeat blocks of at most
// agent.MaxSeqRepeat copies, adding them to the open block when that
// repeats the same slice. A block is never split: one that does not fit
// the chunk opens the next.
func (st *scriptStream) block(reps uint64, actions []int) {
	for reps > 0 {
		var prev uint64
		if st.open && len(st.last) == len(actions) && &st.last[0] == &actions[0] {
			prev, _ = agent.SeqRepeatCount(st.buf[st.mark])
		}
		if prev == 0 || prev == agent.MaxSeqRepeat {
			if len(st.buf)+1+len(actions) > st.limit() {
				st.flush()
			}
			prev, st.mark, st.last, st.open = 0, len(st.buf), actions, true
			st.buf = append(append(st.buf, 0), actions...)
		}
		k := min(reps, agent.MaxSeqRepeat-prev)
		st.buf[st.mark] = agent.SeqRepeat(prev + k)
		reps -= k
	}
}

func (st *scriptStream) wait(rounds uint64) {
	if rounds == 0 {
		return
	}
	if rounds > agent.MaxSeqWait {
		// Beyond the run-length encoding (astronomical trailing blocks):
		// flush and let the deferred wait ride the next chunk's lead.
		st.flush()
		st.w.Wait(rounds)
		return
	}
	st.open = false // the escape ends a block
	st.act(agent.SeqWait(rounds))
}

func (st *scriptStream) flush() {
	if len(st.buf) > 0 {
		agent.RunSeq(st.w, st.buf) // side effects only: O(1) wait runs
		st.buf, st.open = st.buf[:0], false
	}
}
