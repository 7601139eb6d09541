package rendezvous

import "repro/agent"

// UniversalRV returns the paper's Algorithm 3: the universal deterministic
// rendezvous algorithm that uses no a priori knowledge whatsoever — not
// the graph, not its size, not the initial positions, not the delay.
//
// It runs in phases P = 1, 2, ...; phase P decodes the hypothesis triple
// (n, d, δ) = g^{-1}(P) and, when d < n, first executes AsymmRV(n) (in
// the hope the positions are nonsymmetric), returns home, waits out the
// bookkeeping budget, and then, when δ >= d, executes SymmRV(n, d, δ) (in
// the hope the positions are symmetric with Shrink = d and delay δ).
//
// Every procedure has an input-independent, exactly-known duration (see
// the duration-padding note in DESIGN.md), so the two agents enter every
// phase — and every procedure within it — with their original delay. By
// Theorem 3.1, rendezvous happens at the latest in the phase whose triple
// matches the true parameters, for every feasible STIC (Corollary 3.1):
// nonsymmetric starts with any delay, or symmetric starts with
// δ >= Shrink(u, v).
//
// Phases whose padded budgets saturate RoundCap are replaced by a
// RoundCap-long wait: a simulation would need 2^62 rounds to get past
// them, so the substitution is unobservable within any feasible budget.
func UniversalRV() agent.Program { return universalVariant.program() }

// AsymmOnlyUniversalRV is the simplified variant discussed at the end of
// the paper's Section 4: UniversalRV with the SymmRV step deleted. It
// still achieves rendezvous for every STIC with nonsymmetric initial
// positions — with time polynomial in n and δ for the cited AsymmRV
// (ours is exponential only through the view walk) — but never meets from
// symmetric positions. It is the ablation measured by experiment E11.
func AsymmOnlyUniversalRV() agent.Program { return asymmOnlyVariant.program() }

// variant is one way to run Algorithm 3's phases: asymm is the asymmetric
// procedure a phase opens with (it ends at the start node), asymmTime its
// exact duration, and symm whether the phase goes on to SymmRV — and so
// whether the procedure's first UXS application seeds the SymmRV walk
// cache.
type variant struct {
	asymm     func(w agent.World, n, delta uint64, s *rvScratch)
	asymmTime func(n, delta uint64) uint64
	symm      bool
}

var (
	universalVariant = variant{asymmRVWith, AsymmRVTime, true}
	asymmOnlyVariant = variant{asymmRVWith, AsymmRVTime, false}
	fastVariant      = variant{asymmRVIDWith, AsymmRVIDTime, true}
)

// program returns the variant's phases P = 1, 2, ... as an agent program.
func (v variant) program() agent.Program {
	return func(w agent.World) { v.run(w, ^uint64(0)) }
}

// run plays phases 1..last (no run lasts 2^64 phases, so ^uint64(0) is
// forever) on one scratch, reused across every phase of this agent.
func (v variant) run(w agent.World, last uint64) {
	s := rvScratch{seedSymm: v.symm}
	for p := uint64(1); p <= last; p++ {
		n, d, delta := Untriple(p)
		if d >= n {
			// Shrink(u,v) is a distance in a graph of size n, hence
			// d < n in any consistent hypothesis: skip (zero rounds).
			continue
		}
		if v.phaseTime(n, d, delta) >= RoundCap {
			w.Wait(RoundCap)
			continue
		}
		// The asymmetric procedure for its exact duration; it ends at
		// the start node.
		v.asymm(w, n, delta, &s)
		// Bookkeeping wait mirroring the paper's "wait until
		// 2(P(n)+δ) rounds from the start of AsymmRV": keeps both
		// agents' phase clocks identical and keeps this agent parked
		// at home while the other may still be finishing its own
		// (δ-shifted) asymmetric schedule.
		w.Wait(v.asymmTime(n, delta))
		if v.symm && delta >= d {
			symmRVWith(w, n, d, delta, &s)
		}
	}
}

// phaseTime returns the exact duration of the variant's phase for
// hypothesis (n, d, δ): zero for skipped phases (d >= n), otherwise twice
// the asymmetric procedure's duration, plus T(n,d,δ) when the variant
// runs SymmRV and δ >= d.
func (v variant) phaseTime(n, d, delta uint64) uint64 {
	if d >= n {
		return 0
	}
	total := satMul(2, v.asymmTime(n, delta))
	if v.symm && delta >= d {
		total = satAdd(total, SymmRVTime(n, d, delta))
	}
	return total
}

// timeBound returns the rounds the variant needs, counted from the later
// agent's start, to reach the end of the phase whose hypothesis triple is
// (n, d, δ).
func (v variant) timeBound(n, d, delta uint64) uint64 {
	last, total := PhaseFor(n, d, delta), uint64(0)
	for p := uint64(1); p <= last; p++ {
		hn, hd, hdelta := Untriple(p)
		if total = satAdd(total, v.phaseTime(hn, hd, hdelta)); total == RoundCap {
			return RoundCap
		}
	}
	return total
}
