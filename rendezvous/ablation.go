package rendezvous

import (
	"fmt"

	"repro/agent"
	"repro/uxs"
)

// NewUnpaddedSymmRV is the paper-literal SymmRV without duration padding:
// Explore enumerates exactly the paths that exist (no top-up to (n-1)^d
// iterations), so the procedure's duration depends on the degrees the
// walk encounters. Lemma 3.2 still holds for symmetric pairs — the two
// agents see identical degree sequences, so their schedules stay aligned —
// but the duration is *input-dependent*, which silently breaks
// UniversalRV's phase synchrony for nonsymmetric starts. The ablation
// experiment (E13) demonstrates exactly that failure mode; the padded
// NewSymmRV is the correct building block.
func NewUnpaddedSymmRV(n, d, delta uint64) (agent.Program, error) {
	if n < 2 || d < 1 || d >= n || delta < d {
		return nil, fmt.Errorf("rendezvous: UnpaddedSymmRV parameter error (n=%d d=%d δ=%d)", n, d, delta)
	}
	if SymmRVTime(n, d, delta) >= RoundCap {
		return nil, fmt.Errorf("rendezvous: UnpaddedSymmRV(n=%d,d=%d,δ=%d) saturates RoundCap", n, d, delta)
	}
	return func(w agent.World) { unpaddedSymmRV(w, n, d, delta) }, nil
}

func unpaddedSymmRV(w agent.World, n, d, delta uint64) {
	y := uxs.Generate(int(n))
	// One scratch for the whole walk: the enumeration (and its batched
	// d=1 script) is rebuilt at every node, and a per-node scratch would
	// reallocate those buffers each time.
	var s rvScratch
	unpaddedExploreWith(w, d, delta, &s)
	entry := w.Move(0)
	entries := make([]int, 1, len(y)+1)
	entries[0] = entry
	unpaddedExploreWith(w, d, delta, &s)
	for _, a := range y {
		p := (entry + a) % w.Degree()
		entry = w.Move(p)
		entries = append(entries, entry)
		unpaddedExploreWith(w, d, delta, &s)
	}
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	agent.RunSeq(w, entries)
}

// unpaddedExploreWith is Algorithm 2 verbatim: all existing paths of
// length d in lexicographic order, each with backtracking and a δ-d wait —
// and nothing else (no top-up to the PathBudget iteration count). The
// enumeration buffers live in s.
func unpaddedExploreWith(w agent.World, d, delta uint64, s *rvScratch) {
	exploreEnumerate(w, d, delta, ^uint64(0), s)
}
