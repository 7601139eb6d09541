package rendezvous

import (
	"fmt"

	"repro/agent"
)

// This file implements the repository's main extension beyond the paper:
// an iterative-deepening AsymmRV. The paper-faithful asymmRV explores the
// full depth-(n-1) view unconditionally — exponential physical work even
// when the two views differ at depth 1 (they usually do). The deepening
// variant runs sub-phases D = 1, 2, ..., n-1: each sub-phase physically
// builds only the depth-D view and plays a label schedule sized for depth
// D. All sub-phase durations are closed-form functions of (n, D, δ), so
// two agents stay in lock-step through every sub-phase; at the first
// depth where their views differ the labels split and the standard
// active/passive overlap argument forces the meeting. Universality is
// unchanged (depth n-1 is still reached in the worst case, Norris'
// theorem), but the expected physical cost drops from exponential to the
// cost of the distinguishing depth — measured in experiment E19.

// ViewWalkTimeDepth is ViewWalkTime generalized to an explicit depth:
// 2 * sum_{i=1..depth} (n-1)^i rounds.
func ViewWalkTimeDepth(n, depth uint64) uint64 {
	if n < 2 || depth == 0 {
		return 0
	}
	total := uint64(0)
	p := uint64(1)
	for i := uint64(1); i <= depth; i++ {
		p = satMul(p, n-1)
		total = satAdd(total, p)
	}
	return satMul(2, total)
}

// EncodingBitBudgetDepth is EncodingBitBudget generalized to an explicit
// truncation depth.
func EncodingBitBudgetDepth(n, depth uint64) uint64 {
	nodes := uint64(1)
	p := uint64(1)
	for i := uint64(1); i <= depth; i++ {
		p = satMul(p, n-1)
		nodes = satAdd(nodes, p)
	}
	nodes = satAdd(nodes, p) // frontier marks at the truncation depth
	return satMul(satMul(nodes, encBytesPerNode), 8)
}

// AsymmRVIDTime returns the exact duration of the iterative-deepening
// variant: the sum over sub-phases D = 1..n-1 of view walk plus schedule.
func AsymmRVIDTime(n, delta uint64) uint64 {
	if n < 2 {
		return 0
	}
	slot := satMul(ActiveRepeats(n, delta), UXSRoundTrip(n))
	total := uint64(0)
	for d := uint64(1); d <= n-1; d++ {
		total = satAdd(total, ViewWalkTimeDepth(n, d))
		total = satAdd(total, satMul(EncodingBitBudgetDepth(n, d), slot))
	}
	return total
}

// NewAsymmRVID returns the iterative-deepening AsymmRV. Same contract as
// NewAsymmRV — meets every nonsymmetric STIC whose delay matches the
// hypothesis, runs for exactly AsymmRVIDTime(n, δ) rounds, ends at home —
// with physical work proportional to the distinguishing depth of the pair
// rather than always exponential in n.
func NewAsymmRVID(n, delta uint64) (agent.Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("rendezvous: AsymmRVID requires n >= 2, got %d", n)
	}
	if AsymmRVIDTime(n, delta) >= RoundCap {
		return nil, fmt.Errorf("rendezvous: AsymmRVID(n=%d,δ=%d) duration saturates RoundCap", n, delta)
	}
	return func(w agent.World) { asymmRVID(w, n, delta) }, nil
}

func asymmRVID(w agent.World, n, delta uint64) {
	var s rvScratch
	asymmRVIDWith(w, n, delta, &s)
}

func asymmRVIDWith(w agent.World, n, delta uint64, s *rvScratch) {
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseSchedule))
	walk := s.uxsWalkFor(n)
	repeats := ActiveRepeats(n, delta)
	slotLen := satMul(repeats, UXSRoundTrip(n))
	for d := uint64(1); d <= n-1; d++ {
		// Sub-phase D: physical view walk to depth D, padded. The scratch
		// tree and label buffer are reused across sub-phases and phases.
		budget := ViewWalkTimeDepth(n, d)
		start := w.Clock()
		viewWalkWith(w, int(d), budget, &s.tree, s)
		used := w.Clock() - start
		w.Wait(budget - used)

		// Depth-D label schedule.
		s.enc = s.tree.AppendEncode(s.enc[:0])
		slots := EncodingBitBudgetDepth(n, d)
		playSchedule(w, s.enc, slots, repeats, slotLen, walk)
	}
}

// playSchedule runs the active/passive label schedule shared by asymmRV
// and asymmRVID: slot k is active (repeats UXS round trips) iff bit k of
// enc is 1; passive slots (and the padding beyond the label) are merged
// waits. Exactly slots*slotLen rounds.
//
// Once the walk's home-cycle period is cached (after the first active
// slot of the first schedule at this size), every remaining active slot
// is a known percept-free action block, so the whole label region of the
// schedule streams through chunked scripts — each active slot one
// SeqRepeat block of the round trip (adjacent active slots one block),
// which the scheduler walks once and then replays, and each passive run
// one SeqWait action it consumes in O(1). The rounds and positions are
// identical to the slot-by-slot submission; only the script boundaries
// differ.
func playSchedule(w agent.World, enc []byte, slots, repeats, slotLen uint64, walk uxsWalk) {
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseSchedule))
	encBits := uint64(len(enc)) * 8
	pendingPassive := uint64(0)
	var st *scriptStream
	var rot []int
	startStream := func() bool {
		if st != nil {
			return true
		}
		if walk.cache == nil || 2*len(walk.fwd) > maxTripScript {
			return false
		}
		period, ok := walk.cache[walk.n]
		if !ok {
			return false
		}
		// One active slot is repeats repetitions of [fwd rev] — the cached
		// period rotated by half (cf. uxsWalk.playKnown).
		l := len(walk.fwd)
		rot = scratchInts(walk.rev, 2*l)
		copy(rot, period[l:])
		copy(rot[l:], period[:l])
		// Size the chunk to the schedule's real volume (each active slot
		// at most one block, a SeqRepeat and one round trip, each gap a
		// single SeqWait slot) so small schedules use small buffers: the
		// experiment harness churns through many short-lived programs,
		// and a full-cap chunk per agent was a measurable allocator.
		ones := uint64(0)
		for k := uint64(0); k < encBits && k < slots; k += 8 {
			b := enc[k/8]
			for ; b != 0; b &= b - 1 {
				ones++
			}
		}
		need := satAdd(satMul(ones, uint64(2*l+2)), 2)
		chunk := maxTripScript
		if need < uint64(chunk) {
			chunk = int(need)
		}
		st = &scriptStream{w: w, buf: scratchInts(walk.chunk, chunk)[:0], chunk: chunk}
		return true
	}
	for k := uint64(0); k < slots; k++ {
		if k >= encBits {
			pendingPassive += slots - k
			break
		}
		bit := enc[k/8] >> (7 - k%8) & 1
		if bit == 0 {
			pendingPassive++
			continue
		}
		if pendingPassive > 0 {
			if st != nil {
				st.wait(satMul(pendingPassive, slotLen))
			} else {
				w.Wait(satMul(pendingPassive, slotLen))
			}
			pendingPassive = 0
		}
		if startStream() {
			st.block(repeats, rot)
		} else {
			walk.roundTrips(w, repeats)
		}
	}
	if st != nil {
		st.flush()
		*walk.chunk = st.buf[:0]
	}
	if pendingPassive > 0 {
		w.Wait(satMul(pendingPassive, slotLen))
	}
}

// FastUniversalRV is UniversalRV with the iterative-deepening AsymmRV
// substituted — the extension's end-to-end payoff. The phase structure,
// hypothesis enumeration and SymmRV part are identical; only the
// asymmetric procedure (and its bookkeeping budget) changes. The
// guarantee set is the same (Corollary 3.1); meeting times on
// nonsymmetric STICs drop sharply (experiment E19).
func FastUniversalRV() agent.Program {
	return func(w agent.World) {
		var s rvScratch // reused across every phase of this agent
		s.seedSymm = true
		for p := uint64(1); ; p++ {
			n, d, delta := Untriple(p)
			if d >= n {
				continue
			}
			if FastPhaseTime(n, d, delta) >= RoundCap {
				w.Wait(RoundCap)
				continue
			}
			asymmRVIDWith(w, n, delta, &s)
			w.Wait(AsymmRVIDTime(n, delta))
			if delta >= d {
				symmRVWith(w, n, d, delta, &s)
			}
		}
	}
}

// FastPhaseTime is PhaseTime with the deepening AsymmRV budget.
func FastPhaseTime(n, d, delta uint64) uint64 {
	if d >= n {
		return 0
	}
	total := satMul(2, AsymmRVIDTime(n, delta))
	if delta >= d {
		total = satAdd(total, SymmRVTime(n, d, delta))
	}
	return total
}

// FastUniversalRVTimeBound is the guarantee analogue of
// UniversalRVTimeBound for the fast variant.
func FastUniversalRVTimeBound(n, d, delta uint64) uint64 {
	last := PhaseFor(n, d, delta)
	total := uint64(0)
	for p := uint64(1); p <= last; p++ {
		hn, hd, hdelta := Untriple(p)
		total = satAdd(total, FastPhaseTime(hn, hd, hdelta))
		if total == RoundCap {
			return RoundCap
		}
	}
	return total
}
