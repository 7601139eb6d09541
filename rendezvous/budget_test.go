package rendezvous

import (
	"testing"
	"testing/quick"

	"repro/graph"
)

// The AsymmRV schedule silently truncates label bits beyond
// EncodingBitBudgetDepth(n, n-1); if a real encoding ever exceeded the budget, two
// different views could yield identical truncated schedules and the
// meeting guarantee would evaporate. These tests pin the budget's
// soundness for every family and size the experiments use.

func TestEncodingBitBudgetDominatesRealEncodings(t *testing.T) {
	graphs := []*graph.Graph{
		graph.TwoNode(),
		graph.Path(3), graph.Path(5),
		graph.Cycle(4), graph.Cycle(6),
		graph.Star(5),
		graph.Tree(graph.FullShape(2, 2)),
		graph.SymmetricTree(graph.ChainShape(2)),
		graph.Grid(3, 3),
		graph.Petersen(),
	}
	for _, g := range graphs {
		n := uint64(g.N())
		budget := EncodingBitBudgetDepth(n, n-1)
		if budget == RoundCap {
			continue // saturated budgets trivially dominate
		}
		for v := 0; v < g.N(); v++ {
			enc := truncated(g, v, g.N()-1).AppendEncode(nil)
			bits := uint64(len(enc)) * 8
			if bits > budget {
				t.Fatalf("%s node %d: encoding %d bits exceeds budget K(%d)=%d", g, v, bits, n, budget)
			}
		}
	}
}

func TestEncodingBitBudgetDominatesRandom(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%6)
		g := graph.RandomConnected(n, 0, seed)
		budget := EncodingBitBudgetDepth(uint64(n), uint64(n-1))
		for v := 0; v < n; v++ {
			enc := truncated(g, v, n-1).AppendEncode(nil)
			if uint64(len(enc))*8 > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestViewWalkBudgetDominatesRealWalks(t *testing.T) {
	// ViewWalkTimeDepth(n, n-1) must dominate the physical cost of the depth-(n-1)
	// walk on any graph of size <= n.
	for _, g := range []*graph.Graph{graph.Path(4), graph.Cycle(5), graph.Star(4), graph.Complete(4)} {
		n := g.N()
		budget := ViewWalkTimeDepth(uint64(n), uint64(n-1))
		for v := 0; v < n; v++ {
			_, used := soloViewWalk(g, v, n-1, RoundCap)
			if used > budget {
				t.Fatalf("%s node %d: walk used %d rounds, budget %d", g, v, used, budget)
			}
		}
	}
}

func TestSymmRVBudgetsAreMonotone(t *testing.T) {
	// Sanity on the closed forms: T grows in each parameter.
	if SymmRVTime(4, 2, 2) >= SymmRVTime(5, 2, 2) {
		t.Fatal("T not monotone in n")
	}
	if SymmRVTime(5, 1, 2) >= SymmRVTime(5, 2, 2) {
		t.Fatal("T not monotone in d")
	}
	if SymmRVTime(5, 2, 2) >= SymmRVTime(5, 2, 3) {
		t.Fatal("T not monotone in δ")
	}
	if AsymmRVTime(3, 0) >= AsymmRVTime(4, 0) {
		t.Fatal("D_A not monotone in n")
	}
	if AsymmRVTime(4, 0) > AsymmRVTime(4, 10_000) {
		t.Fatal("D_A not monotone in δ")
	}
}
