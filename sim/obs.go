package sim

import (
	"fmt"

	"repro/agent"
	"repro/internal/obs"
)

// Engine kinds for the sim_runs_total label.
const (
	runKindPair = iota
	runKindMulti
	runKindCount
)

// Process-wide run counters, published into obs.Default(). The engine
// hot path never touches these: runs accumulate into their session's
// non-atomic runStats, and the totals flush here as a handful of atomic
// adds when a run ends — the zero-overhead contract obs's doc.go pins
// and BenchmarkInstrumentedShard proves.
var (
	obsRuns         [runKindCount]*obs.Counter
	obsWakeups      *obs.Counter
	obsWakeupsPhase [agent.PhaseCount]*obs.Counter
	obsReplayed     *obs.Counter
)

func init() {
	r := obs.Default()
	for kind, name := range [runKindCount]string{"pair", "multi"} {
		obsRuns[kind] = r.Counter(fmt.Sprintf(`sim_runs_total{engine=%q}`, name),
			"engine runs completed, by engine kind")
	}
	obsWakeups = r.Counter("sim_wakeups_total",
		"scheduler-agent wakeups across all runs")
	for p := agent.Phase(0); p < agent.PhaseCount; p++ {
		obsWakeupsPhase[p] = r.Counter(fmt.Sprintf(`sim_wakeups_phase_total{phase=%q}`, p.String()),
			"scheduler-agent wakeups by producing procedure phase")
	}
	obsReplayed = r.Counter("sim_rounds_replayed_total",
		"agent-rounds of SeqRepeat block copies replayed from a record instead of walked")
}

// publishRunStats flushes one finished run's totals to the process
// counters: one Inc plus at most 2+PhaseCount atomic adds, no locks,
// no allocation. Called from the runs' deferred cleanup closures, never
// from the per-wakeup path.
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
	if st.replayed != 0 {
		obsReplayed.Add(st.replayed)
	}
}
