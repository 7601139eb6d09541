package rendezvous

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
)

// variants are the three programs built on Algorithm 3's phase loop.
var variants = []struct {
	name string
	v    variant
}{
	{"UniversalRV", universalVariant},
	{"FastUniversalRV", fastVariant},
	{"AsymmOnlyUniversalRV", asymmOnlyVariant},
}

// phases runs the real phase body of v for phases 1..last as a
// terminating program (one scratch across the phases, as in the
// program), so that its duration can be measured alone; want is the
// closed-form sum of the same phases' times.
func phases(v variant, last uint64) (prog agent.Program, want uint64) {
	for p := uint64(1); p <= last; p++ {
		want += v.phaseTime(Untriple(p))
	}
	return func(w agent.World) { v.run(w, last) }, want
}

// TestPhaseSynchronyInvariant is the load-bearing property behind
// Theorem 3.1's proof: the first P phases of UniversalRV (and of its two
// variants) must take an IDENTICAL number of rounds from every start node
// of every graph — otherwise the two agents would drift and later phases
// would run with a corrupted delay. It must also equal the closed-form
// phase-time sum.
func TestPhaseSynchronyInvariant(t *testing.T) {
	const maxPhase = 30 // covers hypotheses up to n=4-ish
	graphs := []*graph.Graph{
		graph.TwoNode(),
		graph.Path(4),
		graph.Cycle(5),
		graph.Star(4),
		graph.SymmetricTree(graph.ChainShape(2)),
		graph.OrientedTorus(3, 3),
		graph.RandomConnected(7, 3, 99),
	}
	for _, vc := range variants {
		prog, want := phases(vc.v, maxPhase)
		for _, g := range graphs {
			for v := 0; v < g.N(); v++ {
				got, _, _ := sim.Solo(g, prog, v, 0, nil)
				if got != want {
					t.Fatalf("%s on %s start %d: phases 1..%d took %d rounds, want %d — phase synchrony broken",
						vc.name, g, v, maxPhase, got, want)
				}
			}
		}
	}
}

// TestPhaseSynchronyAcrossGraphSizes pins the same invariant when the
// hypothesis n is wrong in both directions (true graph larger and smaller
// than hypothesized), which exercises the budget caps in explore and
// viewWalk.
func TestPhaseSynchronyAcrossGraphSizes(t *testing.T) {
	const maxPhase = 64 // includes hypotheses with n' up to 5 on a 3-node graph
	// Graph smaller than most hypotheses.
	small := graph.Path(3)
	// Graph larger than all phase hypotheses in range.
	big := graph.Cycle(12)
	for _, vc := range variants {
		prog, want := phases(vc.v, maxPhase)
		for _, g := range []*graph.Graph{small, big} {
			base, _, _ := sim.Solo(g, prog, 0, 0, nil)
			if base != want {
				t.Fatalf("%s on %s: duration %d != closed form %d", vc.name, g, base, want)
			}
			for v := 1; v < g.N(); v++ {
				if got, _, _ := sim.Solo(g, prog, v, 0, nil); got != base {
					t.Fatalf("%s on %s: starts 0 and %d disagree (%d vs %d)", vc.name, g, v, base, got)
				}
			}
		}
	}
}
