// Package repro's root benchmark harness: one benchmark per experiment of
// DESIGN.md §5 (the paper has no numbered tables — it is a theory paper —
// so each lemma/theorem/worked example is regenerated as a table; see
// experiments/testdata/tables.md for recorded outputs).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment (workload generation,
// parallel parameter sweep, verification checks) once per iteration and
// fails if any of the experiment's internal checks fail, so `-bench` is
// also a correctness gate.
package repro

import (
	"fmt"
	"testing"

	"repro/experiments"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

func benchExperiment(b *testing.B, run func() *experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := run()
		if len(tbl.Failed) > 0 {
			b.Fatalf("%s failed checks: %v", tbl.ID, tbl.Failed)
		}
		b.ReportMetric(float64(len(tbl.Rows)), "rows")
	}
}

// BenchmarkE1TwoNode regenerates E1: the introduction's two-node example —
// delay is the only symmetry breaker (§1, Corollary 3.1 on K2).
func BenchmarkE1TwoNode(b *testing.B) { benchExperiment(b, experiments.E1) }

// BenchmarkE2Shrink regenerates E2: Shrink across families (Definition 3.1
// worked examples: torus Shrink=dist, symmetric tree Shrink=1).
func BenchmarkE2Shrink(b *testing.B) { benchExperiment(b, experiments.E2) }

// BenchmarkE3Impossibility regenerates E3: exhaustive infeasibility proofs
// below Shrink (Lemma 3.1).
func BenchmarkE3Impossibility(b *testing.B) { benchExperiment(b, experiments.E3) }

// BenchmarkE4SymmRV regenerates E4: SymmRV meets all symmetric STICs with
// δ >= Shrink (Lemma 3.2).
func BenchmarkE4SymmRV(b *testing.B) { benchExperiment(b, experiments.E4) }

// BenchmarkE5TimeBound regenerates E5: SymmRV duration equals T(n,d,δ)
// exactly (Lemma 3.3).
func BenchmarkE5TimeBound(b *testing.B) { benchExperiment(b, experiments.E5) }

// BenchmarkE6AsymmRV regenerates E6: AsymmRV on nonsymmetric pairs
// (Proposition 3.1 substitute).
func BenchmarkE6AsymmRV(b *testing.B) { benchExperiment(b, experiments.E6) }

// BenchmarkE7Universal regenerates E7 (quick form): UniversalRV on the
// feasible/infeasible STIC suite (Theorem 3.1, Corollary 3.1).
func BenchmarkE7Universal(b *testing.B) {
	benchExperiment(b, func() *experiments.Table { return experiments.E7(false) })
}

// BenchmarkE8Qhat regenerates E8: the Figure 1 construction checks.
func BenchmarkE8Qhat(b *testing.B) { benchExperiment(b, experiments.E8) }

// BenchmarkE9LowerBound regenerates E9 (quick form): the Theorem 4.1
// exponential lower-bound curve with machine-verified premises.
func BenchmarkE9LowerBound(b *testing.B) {
	benchExperiment(b, func() *experiments.Table { return experiments.E9(false) })
}

// BenchmarkE10UniversalGrowth regenerates E10: Proposition 4.1's
// O(n+δ)^O(n+δ) guarantee growth.
func BenchmarkE10UniversalGrowth(b *testing.B) { benchExperiment(b, experiments.E10) }

// BenchmarkE11AsymmOnly regenerates E11: the SymmRV-deleted ablation
// (Section 4 closing remark).
func BenchmarkE11AsymmOnly(b *testing.B) { benchExperiment(b, experiments.E11) }

// BenchmarkE12Randomized regenerates E12: the randomized baseline vs the
// deterministic guarantee (Section 5).
func BenchmarkE12Randomized(b *testing.B) { benchExperiment(b, experiments.E12) }

// BenchmarkE13PaddingAblation regenerates E13: the duration-padding
// design-choice ablation (unpadded Explore desynchronizes agents).
func BenchmarkE13PaddingAblation(b *testing.B) { benchExperiment(b, experiments.E13) }

// BenchmarkE14Election regenerates E14: leader election from rendezvous
// trajectories and the waiting-for-Mommy round trip (Section 1).
func BenchmarkE14Election(b *testing.B) { benchExperiment(b, experiments.E14) }

// BenchmarkE15Async regenerates E15: the asynchronous adversary nullifies
// time (Section 5 conclusion).
func BenchmarkE15Async(b *testing.B) { benchExperiment(b, experiments.E15) }

// BenchmarkE16OptimalityGap regenerates E16: exact OPT vs dedicated vs
// universal costs.
func BenchmarkE16OptimalityGap(b *testing.B) { benchExperiment(b, experiments.E16) }

// BenchmarkE17MultiAgent regenerates E17 (quick form): pairwise
// rendezvous among k agents running UniversalRV.
func BenchmarkE17MultiAgent(b *testing.B) {
	benchExperiment(b, func() *experiments.Table { return experiments.E17(false) })
}

// BenchmarkE17Multiagent measures the k-agent scheduler itself at
// k = 2, 4, 8 (channel-bound UniversalRV sweep shape): k UniversalRV
// agents on a ring with staggered appearance rounds, driven through one
// pooled session (the E17 workload shape without the table harness).
// Distinct from BenchmarkE17MultiAgent above, which regenerates the full
// E17 experiment; this one reports rounds/s and wakeups/op per k. E17's
// own wakeup count is gated exactly in tier-1, by
// experiments/testdata/counts.txt.
func BenchmarkE17Multiagent(b *testing.B) {
	prog := rendezvous.UniversalRV()
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := graph.Cycle(2 * k)
			agents := make([]sim.MultiAgent, k)
			for i := range agents {
				agents[i] = sim.MultiAgent{Program: prog, Start: 2 * i, Appear: uint64(i)}
			}
			sess := sim.NewSession()
			defer sess.Close()
			cfg := sim.MultiConfig{Budget: 500_000}
			b.ReportAllocs()
			var rounds, wakeups uint64
			for i := 0; i < b.N; i++ {
				res := sess.RunMany(g, agents, cfg)
				rounds += res.Rounds
				wakeups += sess.Wakeups()
			}
			b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
			b.ReportMetric(float64(wakeups)/float64(b.N), "wakeups/op")
		})
	}
}

// BenchmarkE18UXSLength regenerates E18: the UXS-length coverage ablation
// behind substitution S1.
func BenchmarkE18UXSLength(b *testing.B) { benchExperiment(b, experiments.E18) }

// BenchmarkE19FastUniversal regenerates E19: the iterative-deepening
// extension versus the paper-faithful UniversalRV.
func BenchmarkE19FastUniversal(b *testing.B) { benchExperiment(b, experiments.E19) }
