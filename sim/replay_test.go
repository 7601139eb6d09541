package sim_test

import (
	"testing"

	"repro/graph"
	"repro/internal/obs"
	"repro/rendezvous"
	"repro/sim"
)

// TestAsymmRVScheduleReplays pins the replay of SeqRepeat blocks on the
// label schedule. AsymmRV(8, 0) from the mirror pair (0, 4) of ring-8
// never meets (δ = 0 < Shrink), and almost all of its moves are copies
// of one closed UXS round trip, which the schedule declares as blocks.
// The run must end exactly as walking every round does and replay at
// least 95% of its moving rounds, so a producer that stops declaring its
// blocks fails here. The run publishes its replayed rounds as
// sim_rounds_replayed_total.
func TestAsymmRVScheduleReplays(t *testing.T) {
	prog, err := rendezvous.NewAsymmRV(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession()
	defer sess.Close()
	before := obs.Default().Values()["sim_rounds_replayed_total"]
	got := sess.RunPrograms(graph.Cycle(8), prog, prog, 0, 4, 0, sim.Config{Budget: 2 * rendezvous.AsymmRVTime(8, 0)})
	want := sim.Result{Outcome: sim.NeverMeet, Rounds: 987_700_008_446, MovesA: 3_421_668, MovesB: 3_421_668}
	if got != want {
		t.Fatalf("AsymmRV(8, 0) on ring-8 (0,4): %+v, want %+v", got, want)
	}
	moving, replayed := got.MovesA+got.MovesB, sess.Replayed()
	if replayed*100 < moving*95 {
		t.Fatalf("replayed %d of %d moving agent-rounds, want at least 95%%", replayed, moving)
	}
	if published := obs.Default().Values()["sim_rounds_replayed_total"] - before; published != replayed {
		t.Fatalf("sim_rounds_replayed_total moved by %d, the run replayed %d", published, replayed)
	}
	t.Logf("replayed %d of %d moving agent-rounds (%.2f%%)", replayed, moving, 100*float64(replayed)/float64(moving))
}
