package stic

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
)

func TestCommonWordSingleton(t *testing.T) {
	// A family of one must agree with the single-STIC search.
	g := graph.TwoNode()
	fam := []STIC{{G: g, U: 0, V: 1, Delay: 1}}
	common, err := SearchCommonWord(fam, 100000)
	if err != nil {
		t.Fatal(err)
	}
	single, err := SearchObliviousWord(fam[0], 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !common.Found || !single.Found {
		t.Fatalf("searches failed: %+v %+v", common, single)
	}
	if common.Rounds != single.Rounds {
		t.Fatalf("singleton family optimum %d != single optimum %d", common.Rounds, single.Rounds)
	}
}

func TestCommonWordSolvesFamilyOnRing(t *testing.T) {
	// One word must meet the agent from node 0 against BOTH possible
	// later starts {2, 4} on C6 with delay 3 (both distances <= 3, so
	// each STIC is feasible individually; the word must handle both).
	g := graph.Cycle(6)
	fam := []STIC{
		{G: g, U: 0, V: 2, Delay: 3},
		{G: g, U: 0, V: 4, Delay: 3},
	}
	res, err := SearchCommonWord(fam, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("no common word: %+v", res)
	}
	// Validate the witness by simulating both STICs.
	prog := agent.Script(res.Word)
	for _, s := range fam {
		r := sim.Run(g, prog, s.U, s.V, s.Delay, sim.Config{Budget: uint64(len(res.Word)) + s.Delay + 2})
		if r.Outcome != sim.Met {
			t.Fatalf("witness fails on %s", s)
		}
	}
	// The common optimum cannot beat either individual optimum.
	for _, s := range fam {
		single, err := SearchObliviousWord(s, 3_000_000)
		if err != nil || !single.Found {
			t.Fatalf("single search failed for %s", s)
		}
		if res.Rounds < single.Rounds {
			t.Fatalf("common optimum %d beats individual optimum %d for %s", res.Rounds, single.Rounds, s)
		}
	}
}

func TestCommonWordInfeasibleMemberClosesSearch(t *testing.T) {
	// If one member is infeasible (δ < Shrink), no common word exists and
	// the search must close the state space.
	g := graph.Cycle(4)
	fam := []STIC{
		{G: g, U: 0, V: 1, Delay: 1}, // feasible alone
		{G: g, U: 0, V: 2, Delay: 1}, // infeasible: Shrink 2 > 1
	}
	res, err := SearchCommonWord(fam, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || !res.Exhausted {
		t.Fatalf("expected exhaustion, got %+v", res)
	}
}

func TestCommonWordOnQhatZFamily(t *testing.T) {
	// Theorem 4.1's setting at its smallest scale: Q̂4 (161 nodes), k=1,
	// the family {[(r, v), D] : v in Z} with D=2. A dedicated word exists
	// (the STICs are feasible) and must pass simulation on both members.
	if testing.Short() {
		t.Skip("Q̂4 common-word search explores a large product space")
	}
	D := 2
	g, info := graph.Qhat(2 * D)
	z := graph.QhatZ(g, info.Root, 1)
	fam := make([]STIC, len(z))
	for i, v := range z {
		fam[i] = STIC{G: g, U: info.Root, V: v, Delay: uint64(D)}
	}
	res, err := SearchCommonWord(fam, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("no dedicated word found for the Z family: %+v", res)
	}
	prog := agent.Script(res.Word)
	for _, s := range fam {
		r := sim.Run(g, prog, s.U, s.V, s.Delay, sim.Config{Budget: uint64(len(res.Word)) + s.Delay + 2})
		if r.Outcome != sim.Met {
			t.Fatalf("witness fails on %s", s)
		}
	}
}

func TestCommonWordValidation(t *testing.T) {
	g := graph.Cycle(4)
	h := graph.Cycle(5)
	if _, err := SearchCommonWord(nil, 10); err == nil {
		t.Fatal("empty family accepted")
	}
	if _, err := SearchCommonWord([]STIC{{G: g, U: 0, V: 1}, {G: h, U: 0, V: 1}}, 10); err == nil {
		t.Fatal("mixed graphs accepted")
	}
	if _, err := SearchCommonWord([]STIC{{G: g, U: 0, V: 1}, {G: g, U: 1, V: 2}}, 10); err == nil {
		t.Fatal("mixed earlier starts accepted")
	}
	if _, err := SearchCommonWord([]STIC{{G: g, U: 0, V: 1, Delay: 13}}, 10); err == nil {
		t.Fatal("oversized delay accepted")
	}
}

func TestCommonWordLargeRing(t *testing.T) {
	// Positions past int16 range: on a 40,000-node ring the family search
	// must answer what the single search answers (same distance forever,
	// so the 40,000 states of the earlier agent close the search).
	g := graph.Cycle(40_000)
	s := STIC{G: g, U: 0, V: 35_000}
	single, err := SearchObliviousWord(s, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	common, err := SearchCommonWord([]STIC{s}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !common.Exhausted || common.States != 40_000 || common.Exhausted != single.Exhausted || common.States != single.States {
		t.Fatalf("family search %+v, single search %+v; want both exhausted after 40000 states", common, single)
	}
}
