package stic

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
)

func TestClassifyTwoNode(t *testing.T) {
	g := graph.TwoNode()
	for delta, feasible := range map[uint64]bool{0: false, 1: true, 2: true} {
		r := Classify(STIC{G: g, U: 0, V: 1, Delay: delta})
		if !r.Symmetric || r.Shrink != 1 {
			t.Fatalf("K2 report %+v", r)
		}
		if r.Feasible != feasible {
			t.Fatalf("K2 δ=%d feasible=%v, want %v", delta, r.Feasible, feasible)
		}
	}
}

func TestClassifyNonsymmetric(t *testing.T) {
	g := graph.Path(3)
	r := Classify(STIC{G: g, U: 0, V: 1, Delay: 0})
	if r.Symmetric || !r.Feasible {
		t.Fatalf("path report %+v", r)
	}
}

func TestClassifyRing(t *testing.T) {
	g := graph.Cycle(8)
	// Pair at ring distance 3: feasible iff δ >= 3.
	for delta, feasible := range map[uint64]bool{0: false, 2: false, 3: true, 7: true} {
		r := Classify(STIC{G: g, U: 0, V: 3, Delay: delta})
		if r.Shrink != 3 || r.Feasible != feasible {
			t.Fatalf("ring δ=%d: %+v", delta, r)
		}
	}
}

func TestClassifyDegenerateSameNode(t *testing.T) {
	g := graph.Cycle(4)
	r := Classify(STIC{G: g, U: 2, V: 2, Delay: 0})
	if !r.Feasible || r.Shrink != 0 {
		t.Fatalf("degenerate report %+v", r)
	}
}

func TestClassifierWarmAllocs(t *testing.T) {
	// A warm Classifier allocates nothing: the view partition is cached
	// per graph, and the shrink workspace reuses its queue, visited map
	// and BFS marks.
	g := graph.OrientedTorus(4, 5)
	pairs := SymmetricPairs(g)
	var c Classifier
	allocs := testing.AllocsPerRun(10, func() {
		for _, pr := range pairs {
			c.Classify(STIC{G: g, U: pr[0], V: pr[1], Delay: 1})
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Classifier: %v allocs per sweep of %d pairs, want 0", allocs, len(pairs))
	}
}

func TestPortHomogeneous(t *testing.T) {
	if !PortHomogeneous(graph.Cycle(6)) {
		t.Fatal("ring should be port-homogeneous")
	}
	if !PortHomogeneous(graph.OrientedTorus(3, 3)) {
		t.Fatal("oriented torus should be port-homogeneous")
	}
	if PortHomogeneous(graph.Path(4)) {
		t.Fatal("path should not be port-homogeneous")
	}
	if PortHomogeneous(graph.SymmetricTree(graph.ChainShape(2))) {
		t.Fatal("symmetric tree is not regular")
	}
	q, _ := graph.Qhat(2)
	if !PortHomogeneous(q) {
		t.Fatal("Q̂2 should be port-homogeneous")
	}
}

func TestWordSearchFindsTwoNodeDelayOne(t *testing.T) {
	g := graph.TwoNode()
	res, err := SearchObliviousWord(STIC{G: g, U: 0, V: 1, Delay: 1}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("no word found: %+v", res)
	}
	// Validate the witness by simulation.
	r := sim.Run(g, agent.Script(res.Word), 0, 1, 1, sim.Config{Budget: uint64(len(res.Word)) + 10})
	if r.Outcome != sim.Met {
		t.Fatalf("witness word %v does not meet in simulation", res.Word)
	}
	if r.MeetingRound != uint64(res.Rounds) {
		t.Fatalf("witness meets at round %d, search reported %d", r.MeetingRound, res.Rounds)
	}
}

func TestWordSearchProvesTwoNodeDelayZeroInfeasible(t *testing.T) {
	// Lemma 3.1 verified exhaustively: K2 is port-homogeneous, so the
	// closure of the word search over all algorithms proves infeasibility.
	g := graph.TwoNode()
	res, err := SearchObliviousWord(STIC{G: g, U: 0, V: 1, Delay: 0}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || !res.Exhausted {
		t.Fatalf("expected exhaustion, got %+v", res)
	}
}

func TestWordSearchMatchesShrinkCharacterization(t *testing.T) {
	// On port-homogeneous graphs, the exhaustive search must agree with
	// the Corollary 3.1 characterization δ >= Shrink for every pair and
	// small delay — two completely independent decision procedures.
	for _, g := range []*graph.Graph{graph.Cycle(4), graph.Cycle(5), graph.Complete(4)} {
		if !PortHomogeneous(g) {
			t.Fatalf("%s not homogeneous", g)
		}
		for _, pr := range SymmetricPairs(g) {
			for delta := uint64(0); delta <= 3; delta++ {
				s := STIC{G: g, U: pr[0], V: pr[1], Delay: delta}
				want := Classify(s).Feasible
				res, err := SearchObliviousWord(s, 2_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Found && !res.Exhausted {
					t.Fatalf("%s: inconclusive search (%d states)", s, res.States)
				}
				if res.Found != want {
					t.Fatalf("%s: search says %v, characterization says %v", s, res.Found, want)
				}
			}
		}
	}
}

func TestWordSearchRejectsHugeDelay(t *testing.T) {
	g := graph.TwoNode()
	if _, err := SearchObliviousWord(STIC{G: g, U: 0, V: 1, Delay: 21}, 1000); err == nil {
		t.Fatal("delay 21 accepted")
	}
}

func TestSymmetricAndNonsymmetricPairs(t *testing.T) {
	g := graph.Cycle(5)
	sp := SymmetricPairs(g)
	if len(sp) != 10 { // all pairs symmetric on a ring
		t.Fatalf("ring-5 symmetric pairs %d, want 10", len(sp))
	}
	if len(NonsymmetricPairs(g)) != 0 {
		t.Fatal("ring-5 should have no nonsymmetric pairs")
	}
	p := graph.Path(3)
	if len(NonsymmetricPairs(p)) == 0 {
		t.Fatal("path-3 should have nonsymmetric pairs")
	}
}

func TestBuildSuite(t *testing.T) {
	g := graph.TwoNode()
	s := BuildSuite("demo", []STIC{
		{G: g, U: 0, V: 1, Delay: 0},
		{G: g, U: 0, V: 1, Delay: 1},
	})
	if len(s.Reports) != 2 || s.Reports[0].Feasible || !s.Reports[1].Feasible {
		t.Fatalf("suite reports %+v", s.Reports)
	}
	if s.Reports[0].String() == "" || s.Reports[1].String() == "" {
		t.Fatal("report strings empty")
	}
}

// Suite is a labeled collection of STICs with their classifications.
type Suite struct {
	Name  string
	STICs []STIC
	// Reports holds Classify's verdict for each entry.
	Reports []Report
}

// BuildSuite classifies each STIC and records the reports.
func BuildSuite(name string, stics []STIC) Suite {
	s := Suite{Name: name, STICs: stics}
	s.Reports = make([]Report, len(stics))
	for i, st := range stics {
		s.Reports[i] = Classify(st)
	}
	return s
}
