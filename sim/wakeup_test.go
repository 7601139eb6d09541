package sim_test

// Wakeup-ceiling regression tests: the whole point of percept-streaming
// scripts (degree streams in grants, schedule streaming, walk caches) is
// that the scheduler wakes agent goroutines a bounded number of times per
// run. Session.Wakeups exposes the count; these tests pin the E17
// workload's ceiling so a producer change cannot silently fall back to
// per-move chatter. The scheduler is deterministic, so the counts are
// exact and the ceilings leave only modest headroom.

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/internal/obs"
	"repro/rendezvous"
	"repro/sim"
)

// TestE17WakeupCeiling replicates E17's quick case — three UniversalRV
// agents on Path(3) with a staggered appearance — and asserts the
// scheduler wakeup ceiling. History: the seed engine used ~6228 wakeups
// on this run, PR 3's script batching reached ~1100, and the
// percept-streaming work (degree-grant view walks with per-size replay
// caches, SymmRV walk seeding from the schedule's first UXS application,
// schedule streaming with lead-merged waits and SeqWait-encoded gaps)
// brought it to ~109. The ceiling leaves modest headroom under the
// ~150 target.
func TestE17WakeupCeiling(t *testing.T) {
	prog := rendezvous.UniversalRV()
	g := graph.Path(3)
	agents := []sim.MultiAgent{
		{Program: prog, Start: 0, Appear: 0},
		{Program: prog, Start: 1, Appear: 0},
		{Program: prog, Start: 2, Appear: 1},
	}
	budget := 2 * rendezvous.UniversalRVTimeBound(3, 1, 1)
	sess := sim.NewSession()
	defer sess.Close()
	res := sess.RunMany(g, agents, sim.MultiConfig{Budget: budget})
	if err := sim.GatherCheck(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Meetings) != 3 {
		t.Fatalf("expected all 3 pairs to meet, got %d meetings", len(res.Meetings))
	}
	wk := sess.Wakeups()
	if wk == 0 {
		t.Fatal("wakeup counter not wired")
	}
	const ceiling = 150
	if wk > ceiling {
		t.Fatalf("E17 run used %d scheduler wakeups, ceiling %d (PR 3 floor was ~1100)", wk, ceiling)
	}
	t.Logf("E17 wakeups: %d (ceiling %d)", wk, ceiling)
}

// TestWakeupHistogramByPhase pins the by-procedure breakdown on the E17
// workload, as the sim_wakeups_phase_total samples of the process
// registry count it: the histogram must sum to the run's total wakeups,
// and every procedure of UniversalRV (view walk, explore, symmRV body,
// label schedule) must account for at least one wakeup — a producer
// whose bucket collapses to zero has stopped reaching the scheduler
// under its own tag, and one whose bucket balloons has fallen back to
// per-move chatter.
func TestWakeupHistogramByPhase(t *testing.T) {
	prog := rendezvous.UniversalRV()
	g := graph.Path(3)
	agents := []sim.MultiAgent{
		{Program: prog, Start: 0, Appear: 0},
		{Program: prog, Start: 1, Appear: 0},
		{Program: prog, Start: 2, Appear: 1},
	}
	budget := 2 * rendezvous.UniversalRVTimeBound(3, 1, 1)
	sess := sim.NewSession()
	defer sess.Close()
	by := wakeupsByPhase(func() { sess.RunMany(g, agents, sim.MultiConfig{Budget: budget}) })
	sum := uint64(0)
	for p, n := range by {
		sum += n
		t.Logf("%-8s %d", agent.Phase(p), n)
	}
	if total := sess.Wakeups(); sum != total {
		t.Fatalf("phase histogram sums to %d, total wakeups %d", sum, total)
	}
	// PhaseExplore is deliberately absent here: on d=1 hypotheses every
	// explore is fused into symmRV's replay streams (exploreThenMove /
	// replaySymmRV1) and correctly attributes to the stream that carried
	// it; the d>=2 run below is where explore drives its own requests.
	for _, p := range []agent.Phase{agent.PhaseViewWalk, agent.PhaseSymmRV, agent.PhaseSchedule} {
		if by[p] == 0 {
			t.Errorf("phase %v recorded no wakeups — its producer is not tagging (or not running)", p)
		}
	}
	// A d >= 2 SymmRV run: depth-2 path enumeration goes through
	// exploreWith itself, so the explore bucket must be populated.
	symm, err := rendezvous.NewSymmRV(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	by = wakeupsByPhase(func() { sess.Run(graph.Cycle(4), symm, 0, 2, 2, sim.Config{Budget: 1 << 20}) })
	if by[agent.PhaseExplore] == 0 {
		t.Errorf("d=2 SymmRV run recorded no explore wakeups: %v", by)
	}
}

// wakeupsByPhase runs f and returns the wakeups it published, per phase,
// as the sim_wakeups_phase_total samples of the process registry moved.
func wakeupsByPhase(f func()) (by [agent.PhaseCount]uint64) {
	before := obs.Default().Values()
	f()
	after := obs.Default().Values()
	for p := range by {
		name := `sim_wakeups_phase_total{phase="` + agent.Phase(p).String() + `"}`
		by[p] = after[name] - before[name]
	}
	return by
}

// TestWakeupCounterTwoAgent sanity-checks the counter on the two-agent
// scheduler: a scripted walk costs a handful of wakeups however many
// rounds it spans, and the counter resets between runs on one session.
func TestWakeupCounterTwoAgent(t *testing.T) {
	g := graph.Cycle(8)
	script := make([]int, 4096)
	prog := func(w agent.World) {
		for {
			w.MoveSeq(script)
		}
	}
	sess := sim.NewSession()
	defer sess.Close()
	res := sess.Run(g, prog, 0, 3, 0, sim.Config{Budget: 100_000})
	if res.Outcome != sim.BudgetExhausted {
		t.Fatalf("unexpected outcome %v", res.Outcome)
	}
	first := sess.Wakeups()
	// ~25 scripts of 4096 rounds per agent plus boundary handshakes.
	if first == 0 || first > 120 {
		t.Fatalf("scripted walk used %d wakeups, expected a few dozen", first)
	}
	res = sess.Run(g, prog, 0, 3, 0, sim.Config{Budget: 1000})
	if res.Outcome != sim.BudgetExhausted {
		t.Fatalf("unexpected outcome %v", res.Outcome)
	}
	if again := sess.Wakeups(); again >= first {
		t.Fatalf("counter did not reset: %d then %d", first, again)
	}
}
