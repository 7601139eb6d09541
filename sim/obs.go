package sim

import (
	"fmt"

	"repro/agent"
	"repro/internal/obs"
)

// Engine kinds for the sim_runs_total label. Batch counts RunBatch
// calls (Batch.cleanup publishes them).
const (
	runKindPair = iota
	runKindMulti
	runKindBatch
	runKindCount
)

// Process-wide run counters, published into obs.Default(). The engine
// hot path never touches these: runs accumulate into their non-atomic
// runStats (solo runs into the session's, batch runs into the arena's)
// exactly as before, and the totals flush here as a handful of atomic
// adds when a run ends — the zero-overhead contract obs's doc.go pins
// and BenchmarkInstrumentedShard proves.
var (
	obsRuns         [runKindCount]*obs.Counter
	obsWakeups      *obs.Counter
	obsWakeupsPhase [agent.PhaseCount]*obs.Counter
)

func init() {
	r := obs.Default()
	for kind, name := range [runKindCount]string{"pair", "multi", "batch"} {
		obsRuns[kind] = r.Counter(fmt.Sprintf(`sim_runs_total{engine=%q}`, name),
			"engine runs completed, by engine kind")
	}
	obsWakeups = r.Counter("sim_wakeups_total",
		"scheduler-agent wakeups across all runs")
	for p := agent.Phase(0); p < agent.PhaseCount; p++ {
		obsWakeupsPhase[p] = r.Counter(fmt.Sprintf(`sim_wakeups_phase_total{phase=%q}`, p.String()),
			"scheduler-agent wakeups by producing procedure phase")
	}
}

// publishRunStats flushes one finished run's totals to the process
// counters: one Inc plus at most 1+PhaseCount atomic adds, no locks,
// no allocation. Called from the runs' existing deferred cleanup
// closures and from Batch.cleanup, never from the per-wakeup path.
func publishRunStats(st *runStats, kind int) {
	obsRuns[kind].Inc()
	if st.wakeups != 0 {
		obsWakeups.Add(st.wakeups)
	}
	for p := range st.wakeupsBy {
		if n := st.wakeupsBy[p]; n != 0 {
			obsWakeupsPhase[p].Add(n)
		}
	}
}
