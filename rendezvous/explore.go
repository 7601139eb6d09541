package rendezvous

import "repro/agent"

// exploreWith runs the paper's Procedure Explore(u, d, δ) (Algorithm 2) at
// the agent's current node u: every port sequence of length d is traversed
// in lexicographic order, each time backtracking along the reverse path and
// then waiting δ-d rounds at u. The enumeration buffers live in s.
//
// Duration padding (DESIGN.md §3): the number of such paths depends on the
// local degrees, but UniversalRV requires every procedure to take an
// input-independent number of rounds, so after the enumeration the agent
// waits out the remaining budget of PathBudget(n,d) iterations. The total
// is exactly PathBudget(n,d) * (d+δ) rounds, which realizes Lemma 3.3's
// bound with equality. Requires 1 <= d <= δ (the paper's precondition).
func exploreWith(w agent.World, n, d, delta uint64, s *rvScratch) {
	if d < 1 || d > delta {
		panic("rendezvous: explore requires 1 <= d <= delta")
	}
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseExplore))
	budget := PathBudget(n, d)
	perIteration := satAdd(d, delta)

	// Budget cap: under a wrong hypothesis (true degrees exceed n-1) there
	// can be more than (n-1)^d paths; stopping at the budget keeps the
	// procedure's duration exact, which is what phase synchrony needs.
	// Under a correct hypothesis the cap never binds before the
	// enumeration finishes.
	count := exploreEnumerate(w, d, delta, budget, s)
	if count < budget {
		w.Wait(satMul(budget-count, perIteration))
	}
}

// appendExplore1Iters appends the enumeration part of Explore(·, 1, δ)
// at a node of the given degree to buf: per enumerated port, the
// out-and-back pair [p, Rel(0)] followed by the δ-1 inter-iteration pad.
// It returns the buffer and the number of iterations emitted. This is
// THE canonical d = 1 round structure; every emitter — the batched
// enumeration, the fused walk step, and the cached-phase replay
// (replaySymmRV1, which streams so long pads stay un-materialized) —
// goes through it or must match it action for action.
func appendExplore1Iters(buf []int, deg int, maxIter, delta uint64) ([]int, uint64) {
	pad := delta - 1
	iters := uint64(deg)
	if maxIter < iters {
		iters = maxIter
	}
	for p := uint64(0); p < iters; p++ {
		buf = append(buf, int(p), agent.Rel(0))
		for q := uint64(0); q < pad; q++ {
			buf = append(buf, agent.ScriptWait)
		}
	}
	return buf, iters
}

// appendExplore1 appends the full action stream of Explore(·, 1, δ):
// the enumeration plus the duration-padding trailer that rounds the
// procedure up to exactly PathBudget(n, 1)·(1+δ) rounds.
func appendExplore1(buf []int, deg int, budget, delta uint64) []int {
	buf, iters := appendExplore1Iters(buf, deg, budget, delta)
	trail := satMul(budget-iters, satAdd(1, delta))
	for q := uint64(0); q < trail; q++ {
		buf = append(buf, agent.ScriptWait)
	}
	return buf
}

// explore1ScriptLen returns the length appendExplore1 would emit, so
// callers can budget-check before materializing (saturating arithmetic:
// huge pads fail the maxExploreScript comparison rather than overflow).
func explore1ScriptLen(deg int, budget, delta uint64) uint64 {
	iters := uint64(deg)
	if budget < iters {
		iters = budget
	}
	perIter := satAdd(1, delta)
	return satAdd(satMul(iters, perIter), satMul(budget-iters, perIter))
}

// exploreThenMove performs Explore(u, d, δ) followed by one move through
// the given outgoing port (applied modulo the degree of u) and returns
// the entry port into, and the degree of, the node the move lands on.
// SymmRV executes exactly this pair at every node of its UXS walk, and
// the port is known before the Explore starts, so for the batchable
// d = 1 form the enumeration, its duration padding AND the walk step
// fuse into a single script — one scheduler wakeup per walk node, with
// the landed node's degree (SymmRV's walk bookkeeping) read straight
// from the grant's degree stream. The fallback is the
// split submission with identical per-round behavior.
func exploreThenMove(w agent.World, n, d, delta uint64, s *rvScratch, port int) (entry, deg int) {
	// The fused script is dominated by the enumeration; the appended walk
	// step rides along under the explore tag.
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseExplore))
	if d == 1 && delta >= 1 {
		budget := PathBudget(n, 1)
		if explore1ScriptLen(w.Degree(), budget, delta) < maxExploreScript {
			script := appendExplore1(s.expScript[:0], w.Degree(), budget, delta)
			script = append(script, port)
			s.expScript = script
			entries, degs := w.MoveSeq(script)
			return entries[len(entries)-1], degs[len(degs)-1]
		}
	}
	exploreWith(w, n, d, delta, s)
	return w.Move(port), w.Degree()
}

// exploreEnumerate is the enumeration core shared by the padded
// exploreWith and the paper-literal unpaddedExploreWith: all port sequences
// of length d in lexicographic order, each traversed forward, backtracked
// along the reverse path, and followed by a δ-d wait — capped at maxIter
// iterations.
// It returns the number of iterations performed (d+δ rounds each). The
// enumeration buffers live in the scratch: SymmRV calls this at every
// node of its UXS walk, so per-call allocation would dominate the phase.

// maxExploreScript caps the length of a fully batched explore script
// (the buffer persists in the agent's scratch); enumerations whose
// batched form would exceed it fall back to per-iteration submission,
// where the scheduler's wait fast-forward does the heavy lifting.
const maxExploreScript = 4096

func exploreEnumerate(w agent.World, d, delta, maxIter uint64, s *rvScratch) uint64 {
	count := uint64(0)
	pad := delta - d
	if d == 1 {
		// Depth-1 paths need no percepts at all beyond the start node's
		// degree, already known: iteration p moves out through port p and
		// straight back through the entry port — which is exactly Rel(0) —
		// then pads with δ-d waits. The whole enumeration therefore
		// batches into ONE script (moves and in-script wait runs alike;
		// the trailer, when any, is exploreWith's wait), built in the
		// scratch; the scheduler wakes the agent once per Explore instead
		// of once per path.
		iters := uint64(w.Degree())
		if maxIter < iters {
			iters = maxIter
		}
		per := 2 + pad
		if per <= maxExploreScript && iters*per <= maxExploreScript {
			script, emitted := appendExplore1Iters(s.expScript[:0], w.Degree(), maxIter, delta)
			s.expScript = script
			agent.RunSeq(w, script)
			return emitted
		}
		// Padding too long to materialize: per-iteration submission (the
		// world merges each pad into the next iteration's script when it
		// is short enough, and fast-forwards it otherwise).
		step := scratchInts(&s.expSeq, 2)
		step[0], step[1] = 0, agent.Rel(0)
		for {
			deg := w.Degree()
			agent.RunSeq(w, step)
			w.Wait(pad)
			count++
			if count == maxIter || step[0]+1 >= deg {
				return count
			}
			step[0]++
		}
	}

	dd := int(d)
	seq := scratchInts(&s.expSeq, dd) // current port sequence (starts all-zero)
	for i := range seq {
		seq[i] = 0
	}
	degs := scratchInts(&s.expDegs, dd)       // degree of the node at each depth
	entries := scratchInts(&s.expEntries, dd) // entry ports, for backtracking
	rev := scratchInts(&s.expRev, dd)         // reversed entries, batched backtrack script

	// The forward walk needs the degree at every depth to compute the
	// lexicographic successor — and the current port sequence is itself a
	// complete forward script (its ports are valid by construction: the
	// successor bump keeps seq[j]+1 < degs[j] and resets deeper positions
	// to port 0, valid at every node). MoveSeq therefore plays the
	// ENTIRE forward walk in one grant whose degree stream fills degs[]
	// for the next successor computation and whose entry stream fills the
	// backtrack path — no per-node suffix wakeups. ingest maps the
	// streams: the move at forward offset i enters the depth-(i+1) node,
	// so degrees[i] lands in degs[i+1] (degs[0], the degree of u itself,
	// is a plain percept read once); degs[dd] is never needed.
	degs[0] = w.Degree()
	ingest := func(gotE, gotD []int) {
		copy(entries, gotE)
		copy(degs[1:dd], gotD)
	}
	ingest(w.MoveSeq(seq))
	for {
		// The reverse path back to u, played batched below.
		for i, j := 0, dd-1; j >= 0; i, j = i+1, j-1 {
			rev[i] = entries[j]
		}
		count++
		last := count == maxIter
		j := -1
		if !last {
			// Lexicographic successor: bump the deepest position that
			// has a next port; deeper positions reset to port 0, which is
			// valid at every node regardless of the (yet unknown) degrees
			// there.
			j = dd - 1
			for j >= 0 && seq[j]+1 >= degs[j] {
				seq[j] = 0
				j--
			}
			last = j < 0
		}
		if last {
			agent.RunSeq(w, rev)
			w.Wait(delta - d)
			return count
		}
		seq[j]++

		// Merge this iteration's backtrack, the inter-iteration pad and
		// the whole next forward walk into one script — the moves and
		// their per-round timing are exactly those of the split
		// submission, but the scheduler wakes the agent once per
		// iteration. Long pads are not materialized; they go through the
		// wait fast-forward instead.
		if total := uint64(2*dd) + pad; total <= maxExploreScript {
			script := scratchInts(&s.expScript, int(total))
			copy(script, rev)
			for q := 0; q < int(pad); q++ {
				script[dd+q] = agent.ScriptWait
			}
			fo := dd + int(pad)
			copy(script[fo:], seq)
			gotE, gotD := w.MoveSeq(script)
			ingest(gotE[fo:], gotD[fo:])
		} else {
			agent.RunSeq(w, rev)
			w.Wait(pad)
			ingest(w.MoveSeq(seq))
		}
	}
}
