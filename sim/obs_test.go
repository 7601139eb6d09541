package sim

import (
	"strings"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/internal/obs"
)

// TestObsRunCountersMove checks that each engine kind flushes its run
// totals into the process registry: pair and multi runs increment their
// sim_runs_total sample and add their wakeups, and the retired batch
// engine has no sample. Counters are process-global and tests run in
// one process, so every assertion is on deltas.
func TestObsRunCountersMove(t *testing.T) {
	g := graph.Cycle(8)
	sess := NewSession()
	defer sess.Close()

	snap := func() map[string]uint64 { return obs.Default().Values() }

	before := snap()
	res := sess.RunPrograms(g, agent.Sit, agent.Sit, 0, 1, 0, Config{Budget: 16})
	if res.Outcome == Met {
		t.Fatalf("two sitters met: %+v", res)
	}
	after := snap()
	if after[`sim_runs_total{engine="pair"}`] != before[`sim_runs_total{engine="pair"}`]+1 {
		t.Fatalf("pair run counter did not move: %d -> %d",
			before[`sim_runs_total{engine="pair"}`], after[`sim_runs_total{engine="pair"}`])
	}
	if after["sim_wakeups_total"] <= before["sim_wakeups_total"] {
		t.Fatal("wakeup counter did not move on a pair run")
	}

	before = snap()
	sess.RunMany(g, []MultiAgent{{Program: agent.Sit}, {Program: agent.Sit, Start: 2}}, MultiConfig{Budget: 16})
	after = snap()
	if after[`sim_runs_total{engine="multi"}`] != before[`sim_runs_total{engine="multi"}`]+1 {
		t.Fatal("multi run counter did not move")
	}

	if _, ok := after[`sim_runs_total{engine="batch"}`]; ok {
		t.Fatal(`the registry still holds a sim_runs_total{engine="batch"} sample`)
	}
}

// TestObsPhaseFamiliesRegistered asserts every agent.Phase has a
// registered wakeup sample so the /metrics surface names the full
// per-phase histogram.
func TestObsPhaseFamiliesRegistered(t *testing.T) {
	vals := obs.Default().Values()
	for p := agent.Phase(0); p < agent.PhaseCount; p++ {
		name := `sim_wakeups_phase_total{phase="` + p.String() + `"}`
		if _, ok := vals[name]; !ok {
			t.Errorf("missing registered sample %s", name)
		}
	}
}

// TestInstrumentedShardAllocs is the zero-overhead contract as a hard
// test: a warm shard of per-case runs — each publishing its totals into
// the obs registry when it ends — must stay exactly 0 allocs per shard,
// and must move the two-agent run counter.
func TestInstrumentedShardAllocs(t *testing.T) {
	g := graph.Cycle(32)
	prog := shardSearcher(uxsStyleScript(32, 32))
	const w = 64
	sess := NewSession()
	defer sess.Close()
	runShard(sess, g, prog, w) // warm the pool
	before := obsRuns[runKindPair].Value()
	allocs := testing.AllocsPerRun(5, func() {
		runShard(sess, g, prog, w)
	})
	if allocs != 0 {
		t.Fatalf("instrumented shard allocates %.1f per run, want 0", allocs)
	}
	if obsRuns[runKindPair].Value() == before {
		t.Fatal(`sim_runs_total{engine="pair"} did not move`)
	}
}

// TestObsExpositionCoversSim asserts the registry exposition carries
// the sim families in valid Prometheus text shape.
func TestObsExpositionCoversSim(t *testing.T) {
	var b strings.Builder
	if err := obs.Default().Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"# TYPE sim_runs_total counter",
		"# TYPE sim_wakeups_total counter",
		"# TYPE sim_wakeups_phase_total counter",
		"# TYPE sim_rounds_replayed_total counter",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
}
