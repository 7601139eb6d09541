package experiments

import (
	"fmt"

	"repro/graph"
	"repro/sim"
	"repro/uxs"
)

// E18 is the ablation for substitution S1 (DESIGN.md): how much generated
// sequence does the UXS actually need? For each length multiplier the
// table reports the fraction of random connected graphs (and of the
// experiment families) covered from every start. The default multiplier
// must cover everything the experiments rely on; shorter prefixes start
// failing, which is precisely why the Covers verifier exists — a paper
// implementation that silently trusted a too-short sequence would turn
// "rendezvous guaranteed" into "rendezvous usually".
func E18() *Table {
	t := &Table{
		ID:       "E18",
		Title:    "Ablation: UXS length vs covering probability",
		PaperRef: "Section 2 (UXS) / substitution S1",
		Columns:  []string{"length multiplier", "random graphs covered", "families covered", "shortest failing family"},
	}
	const samples = 120
	randoms := make([]*graph.Graph, samples)
	for i := range randoms {
		n := 4 + i%10
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := i % 4
		if extra > maxExtra {
			extra = maxExtra
		}
		randoms[i] = graph.RandomConnected(n, extra, uint64(1000+i))
	}
	fams := []*graph.Graph{
		graph.TwoNode(), graph.Path(6), graph.Cycle(10), graph.Star(6),
		graph.OrientedTorus(3, 4), graph.Hypercube(3),
		graph.SymmetricTree(graph.ChainShape(3)),
		graph.Tree(graph.FullShape(2, 2)), graph.Petersen(),
		graph.Lollipop(5, 5),
	}
	type workItem struct {
		g *graph.Graph
		s uxs.Sequence
	}

	for _, mul := range []struct {
		label string
		num   int
		den   int
	}{
		{"1/8", 1, 8}, {"1/4", 1, 4}, {"1/2", 1, 2}, {"1 (default)", 1, 1}, {"2", 2, 1},
	} {
		length := func(n int) int {
			l := uxs.DefaultLength(n) * mul.num / mul.den
			if l < 1 {
				l = 1
			}
			return l
		}

		// Random graphs, checked in parallel.
		items := make([]workItem, samples)
		for i, g := range randoms {
			items[i] = workItem{g: g, s: uxs.GenerateLength(g.N(), length(g.N()))}
		}
		covered := sim.Sweep(items, 0, func(it workItem) any { return it.g.N() }, func(_ *sim.Scratch, it workItem) bool {
			return uxs.Covers(it.g, it.s)
		})
		okRandom := 0
		for _, c := range covered {
			if c {
				okRandom++
			}
		}

		okFamilies := 0
		failing := "-"
		for _, g := range fams {
			if uxs.Covers(g, uxs.GenerateLength(g.N(), length(g.N()))) {
				okFamilies++
			} else if failing == "-" {
				failing = g.String()
			}
		}

		t.AddRow(mul.label,
			fmt.Sprintf("%d/%d", okRandom, samples),
			fmt.Sprintf("%d/%d", okFamilies, len(fams)),
			failing)
		if mul.num == 1 && mul.den == 1 {
			t.Check(okRandom == samples, "default length misses %d random graphs", samples-okRandom)
			t.Check(okFamilies == len(fams), "default length misses families (first: %s)", failing)
		}
		if mul.label == "2" {
			t.Check(okRandom == samples && okFamilies == len(fams), "2x length still failing somewhere")
		}
	}
	t.Notes = append(t.Notes,
		"The default multiplier must cover every sample — that row doubles as the suite's standing verification of substitution S1.",
		"Short prefixes failing first on the lollipop/path shapes mirrors the classical cover-time worst cases.")
	return t
}
