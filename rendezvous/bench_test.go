package rendezvous

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
	"repro/view"
)

// BenchmarkViewWalkBatched: the AsymmRV hot path — physical view
// reconstruction into a warm flat tree plus label encoding. Steady state
// is 0 allocs/op: the tree slab, kid arena, encoding and planner buffers
// all live in the per-agent scratch and are reused across walks. With a
// warm scratch this now measures the production repeat-phase path — the
// per-(depth,budget) walk cache replays the recorded script percept-free
// and copies the cached tree, which is what every UniversalRV phase
// after the first does at a given hypothesis. BenchmarkViewWalkCold
// measures the first walk (the speculative planner).
func BenchmarkViewWalkBatched(b *testing.B) {
	g := graph.Petersen()
	var tree view.Tree
	var enc []byte
	var s rvScratch
	walk := func(w agent.World) { viewWalkWith(w, 3, RoundCap, &tree, &s) }
	sim.Solo(g, walk, 0, 0, nil)
	enc = tree.AppendEncode(enc[:0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Solo(g, walk, 0, 0, nil)
		enc = tree.AppendEncode(enc[:0])
	}
	_ = enc
}

// BenchmarkViewWalkCold: the first walk at a hypothesis — the
// planner DFS with nothing cached.
func BenchmarkViewWalkCold(b *testing.B) {
	g := graph.Petersen()
	var tree view.Tree
	var s rvScratch
	walk := func(w agent.World) { viewWalkWith(w, 3, RoundCap, &tree, &s) }
	sim.Solo(g, walk, 0, 0, nil) // warm the planner buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.walkCache = nil
		sim.Solo(g, walk, 0, 0, nil)
	}
}

// BenchmarkSymmRVTwoNode: the dedicated symmetric procedure on K2, δ=1.
func BenchmarkSymmRVTwoNode(b *testing.B) {
	g := graph.TwoNode()
	prog, err := NewSymmRV(2, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := sim.Run(g, prog, 0, 1, 1, sim.Config{Budget: 4 * SymmRVTime(2, 1, 1)}); res.Outcome != sim.Met {
			b.Fatal("did not meet")
		}
	}
}

// BenchmarkSymmRVRing6: a mid-size symmetric instance (ring-6, Shrink 3).
func BenchmarkSymmRVRing6(b *testing.B) {
	g := graph.Cycle(6)
	prog, err := NewSymmRV(6, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := sim.Run(g, prog, 0, 3, 3, sim.Config{Budget: 3 + 2*SymmRVTime(6, 3, 3)}); res.Outcome != sim.Met {
			b.Fatal("did not meet")
		}
	}
}

// BenchmarkAsymmRVPath3: the nonsymmetric procedure on path-3 endpoints.
func BenchmarkAsymmRVPath3(b *testing.B) {
	g := graph.Path(3)
	prog, err := NewAsymmRV(3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := sim.Run(g, prog, 0, 2, 0, sim.Config{Budget: 2 * AsymmRVTime(3, 0)}); res.Outcome != sim.Met {
			b.Fatal("did not meet")
		}
	}
}

// BenchmarkUniversalRVTwoNode: the zero-knowledge algorithm end to end.
func BenchmarkUniversalRVTwoNode(b *testing.B) {
	g := graph.TwoNode()
	bound := UniversalRVTimeBound(2, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := sim.Run(g, UniversalRV(), 0, 1, 1, sim.Config{Budget: 1 + 2*bound}); res.Outcome != sim.Met {
			b.Fatal("did not meet")
		}
	}
}

// BenchmarkPairing: phase decode speed (UniversalRV spins through many
// skipped phases between executed ones).
func BenchmarkPairing(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		n, d, delta := Untriple(uint64(i%100000 + 1))
		sink += n + d + delta
	}
	_ = sink
}
