package rendezvous

// SymmRV walk-cache seeding tests: AsymmRV's schedule plays the same UXS
// walk R(u) that SymmRV(n, 1, δ) follows, so the grant of its first
// application seeds the SymmRV walk cache and the whole d = 1 procedure
// replays percept-free — no per-node learning pass at all. The seeded
// replay must be round-for-round identical to the learning-pass
// execution; these tests pin that with full lone-run trajectories.

import (
	"math"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
)

// TestSymmRVSeededReplayMatchesLearning runs AsymmRV followed by SymmRV
// twice: once on a shared scratch (the UniversalRV shape, where the
// schedule's walk seeds the SymmRV cache and SymmRV replays) and once
// with a fresh scratch for SymmRV (forcing the learning pass). The
// per-round trajectories must be identical.
func TestSymmRVSeededReplayMatchesLearning(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		delta uint64
	}{
		{graph.TwoNode(), 1},
		{graph.Path(3), 1},
		{graph.Cycle(4), 1},
	}
	for _, c := range cases {
		n := uint64(c.g.N())
		shared := func(w agent.World) {
			var s rvScratch
			s.seedSymm = true
			asymmRVWith(w, n, c.delta, &s)
			symmRVWith(w, n, 1, c.delta, &s)
		}
		split := func(w agent.World) {
			var s1 rvScratch
			asymmRVWith(w, n, c.delta, &s1)
			var s2 rvScratch // fresh: no seeded cache, SymmRV learns
			symmRVWith(w, n, 1, c.delta, &s2)
		}
		for v := 0; v < c.g.N() && v < 2; v++ {
			seeded := sim.SoloTrace(c.g, shared, v, math.MaxUint64)
			learned := sim.SoloTrace(c.g, split, v, math.MaxUint64)
			if a, b := seeded.Clock(), learned.Clock(); a != b {
				t.Fatalf("%s node %d: seeded run took %d rounds, learning run %d", c.g, v, a, b)
			}
			if a, b := seeded.String(), learned.String(); a != b {
				t.Fatalf("%s node %d: seeded replay trajectory differs from learning pass\n  seeded:  %.120s\n  learned: %.120s",
					c.g, v, a, b)
			}
		}
	}
}

// TestSymmRVSeedContents checks the seeded cache entry itself against
// what the learning pass records: same degrees, same entry ports.
func TestSymmRVSeedContents(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(4), graph.Cycle(5)} {
		n := uint64(g.N())
		var fromSchedule, fromLearning symmWalk
		sim.Solo(g, func(w agent.World) {
			var s rvScratch
			s.seedSymm = true
			asymmRVWith(w, n, 1, &s)
			fromSchedule = s.symCache[n]
		}, 0, 0, nil)
		sim.Solo(g, func(w agent.World) {
			var s rvScratch
			symmRVWith(w, n, 1, 1, &s)
			fromLearning = s.symCache[n]
		}, 0, 0, nil)
		if len(fromSchedule.degs) == 0 {
			t.Fatalf("%s: AsymmRV schedule did not seed the SymmRV walk cache", g)
		}
		if len(fromSchedule.degs) != len(fromLearning.degs) || len(fromSchedule.entries) != len(fromLearning.entries) {
			t.Fatalf("%s: seeded cache shape %d/%d, learned %d/%d", g,
				len(fromSchedule.degs), len(fromSchedule.entries), len(fromLearning.degs), len(fromLearning.entries))
		}
		for i := range fromSchedule.degs {
			if fromSchedule.degs[i] != fromLearning.degs[i] {
				t.Fatalf("%s: seeded degs[%d] = %d, learned %d", g, i, fromSchedule.degs[i], fromLearning.degs[i])
			}
		}
		for i := range fromSchedule.entries {
			if fromSchedule.entries[i] != fromLearning.entries[i] {
				t.Fatalf("%s: seeded entries[%d] = %d, learned %d", g, i, fromSchedule.entries[i], fromLearning.entries[i])
			}
		}
	}
}
