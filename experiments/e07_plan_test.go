package experiments

import (
	"testing"

	"repro/graph"
	"repro/stic"
)

// TestE7PlanShardsBatchFlagged pins E7's dispatch plan on the real
// workload: every shard descriptor is declared batch-eligible, so E7's
// grids run through the lockstep batch engine.
func TestE7PlanShardsBatchFlagged(t *testing.T) {
	k2 := graph.TwoNode()
	p3 := graph.Path(3)
	cases := []e7Case{
		{k2, 0, 1, 1},
		{k2, 0, 1, 2},
		{p3, 0, 2, 0},
		{p3, 0, 2, 1},
	}
	var cl stic.Classifier
	reps := make([]stic.Report, len(cases))
	for i, c := range cases {
		reps[i] = cl.Classify(stic.STIC{G: c.g, U: c.u, V: c.v, Delay: c.delta})
	}
	plan := e7Plan(cases, reps)
	for si, sh := range plan.Shards() {
		if !sh.Batch {
			t.Fatalf("shard %d: E7 grid not declared batch-eligible", si)
		}
	}
}
