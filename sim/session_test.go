package sim_test

// Pooled-runner session tests: isolation of reused runners across
// consecutive cases of a Sweep shard (run under -race in CI), stash
// reuse, panic propagation through pooled workers, the steady-state
// allocation guarantee of the k-agent phase loop, and how release ends
// the programs a run leaves parked.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// TestSessionReuseMatchesFresh drives many heterogeneous runs through
// ONE session — different graphs, programs, delays, and abort points —
// and checks every result against a fresh-session run. Any state bleed
// through the pooled goroutines, channels or script buffers (stale
// requests, stale grants, leftover wait accumulators) would surface as a
// result mismatch.
func TestSessionReuseMatchesFresh(t *testing.T) {
	sess := sim.NewSession()
	defer sess.Close()

	type c struct {
		g      *graph.Graph
		pa, pb agent.Program
		u, v   int
		delay  uint64
		budget uint64
	}
	leader, sitter := rendezvous.WaitForMommy(7)
	cases := []c{
		// Aborted mid-script (meeting), mid-wait (budget), and normal
		// termination (NeverMeet), alternating graphs and programs.
		{graph.TwoNode(), agent.MoveEveryRound, agent.MoveEveryRound, 0, 1, 1, 100},
		{graph.Cycle(7), leader, sitter, 0, 4, 3, 10 * rendezvous.UXSRoundTrip(7)},
		{graph.Path(3), agent.Script([]int{0}), agent.Script([]int{0}), 0, 2, 0, 50},
		{graph.Cycle(5), agent.Sit, agent.Sit, 0, 2, 0, 1 << 30},
		{graph.Path(4), func(w agent.World) {}, func(w agent.World) {}, 0, 3, 2, 1 << 20},
		{graph.Cycle(6), rendezvous.UniversalRV(), rendezvous.UniversalRV(), 0, 3, 3, 50_000},
		{graph.TwoNode(), agent.MoveEveryRound, agent.Sit, 0, 1, 0, 77},
	}
	for round := 0; round < 8; round++ {
		for i, cc := range cases {
			got := sess.RunPrograms(cc.g, cc.pa, cc.pb, cc.u, cc.v, cc.delay, sim.Config{Budget: cc.budget})
			want := sim.RunPrograms(cc.g, cc.pa, cc.pb, cc.u, cc.v, cc.delay, sim.Config{Budget: cc.budget})
			if got != want {
				t.Fatalf("round %d case %d: pooled %+v != fresh %+v", round, i, got, want)
			}
		}
	}
}

// TestSweepSessionIsolation runs a sweep whose shards share workers (and
// therefore Scratch arenas, stashes and pooled sessions) and checks
// position-stable, bleed-free results; CI runs it under -race, which
// additionally proves no two cases ever touch one session concurrently.
func TestSweepSessionIsolation(t *testing.T) {
	type job struct {
		g     *graph.Graph
		v     int
		delay uint64
	}
	graphs := []*graph.Graph{graph.Cycle(8), graph.Cycle(12), graph.Path(5), graph.OrientedTorus(3, 3)}
	var jobs []job
	for gi, g := range graphs {
		for v := 1; v < g.N(); v++ {
			jobs = append(jobs, job{g, v, uint64(gi + v)})
		}
	}
	run := func(workers int) []sim.Result {
		return sim.Sweep(jobs, workers, func(j job) any { return j.g }, func(sc *sim.Scratch, j job) sim.Result {
			// Exercise the stash alongside the session: a per-worker
			// counter must never be shared across workers.
			type stash struct{ runs int }
			st := sc.Stash(func() any { return &stash{} }).(*stash)
			st.runs++
			return sc.Session().Run(j.g, agent.MoveEveryRound, 0, j.v, j.delay, sim.Config{Budget: 3_000})
		})
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep results differ from sequential", workers)
		}
	}
}

// TestSweepSessionMultiAgentIsolation is the k-agent form: consecutive
// RunMany calls on one worker's session must not bleed meeting matrices,
// runner state or script buffers into each other.
func TestSweepSessionMultiAgentIsolation(t *testing.T) {
	type job struct {
		g *graph.Graph
		k int
	}
	var jobs []job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, job{graph.Cycle(5 + i%3), 2 + i%3})
	}
	run := func(workers int) []sim.MultiResult {
		return sim.Sweep(jobs, workers, func(j job) any { return j.g }, func(sc *sim.Scratch, j job) sim.MultiResult {
			agents := make([]sim.MultiAgent, j.k)
			for a := range agents {
				agents[a] = sim.MultiAgent{Program: agent.MoveEveryRound, Start: a, Appear: uint64(a)}
			}
			return sc.Session().RunMany(j.g, agents, sim.MultiConfig{Budget: 2_000})
		})
	}
	want := run(1)
	got := run(4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel sweep results differ from sequential\n got: %+v\nwant: %+v", got, want)
	}
}

// TestSessionPanicPropagation: a program panic must surface to the
// caller even through a pooled, reused runner — and the session must
// remain usable afterwards.
func TestSessionPanicPropagation(t *testing.T) {
	sess := sim.NewSession()
	defer sess.Close()
	g := graph.TwoNode()

	boom := func(w agent.World) {
		w.Move(0)
		panic("boom")
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the program panic to propagate")
			}
		}()
		sess.RunPrograms(g, boom, agent.Sit, 0, 1, 5, sim.Config{Budget: 100})
	}()

	// The session must still produce correct results on reused runners.
	res := sess.Run(g, agent.MoveEveryRound, 0, 1, 1, sim.Config{Budget: 100})
	if res.Outcome != sim.Met {
		t.Fatalf("session unusable after panic: %+v", res)
	}
}

// TestRunManySteadyStateAllocs pins the acceptance criterion: after
// warmup, the k-agent scheduler's phase loop performs zero allocations
// per run beyond the MultiResult's own Moves slice and (bounded) result
// bookkeeping. Scripted agents, mixed appearance rounds, thousands of
// rounds.
func TestRunManySteadyStateAllocs(t *testing.T) {
	g := graph.Cycle(8)
	sess := sim.NewSession()
	defer sess.Close()
	script := make([]int, 0, 256)
	for i := 0; i < 120; i++ {
		script = append(script, 0)
	}
	for i := 0; i < 16; i++ {
		script = append(script, agent.ScriptWait)
	}
	prog := func(w agent.World) {
		for {
			w.MoveSeq(script)
			w.Wait(100)
		}
	}
	agents := []sim.MultiAgent{
		{Program: prog, Start: 0, Appear: 0},
		{Program: prog, Start: 2, Appear: 1},
		{Program: prog, Start: 4, Appear: 5},
		{Program: prog, Start: 6, Appear: 9},
	}
	run := func() sim.MultiResult {
		return sess.RunMany(g, agents, sim.MultiConfig{Budget: 20_000})
	}
	want := run() // warm the pool and all script buffers
	avg := testing.AllocsPerRun(20, func() {
		got := run()
		if got.Rounds != want.Rounds {
			panic(fmt.Sprintf("rounds drifted: %d != %d", got.Rounds, want.Rounds))
		}
	})
	// The result's Moves slice plus the detect/finalize closures are the
	// only per-run allocations allowed; the phase loop itself adds none.
	if avg > 8 {
		t.Fatalf("k-agent run allocates %.1f allocs/op in steady state", avg)
	}
}

// TestReleaseUnwindsParkedPrograms pins release's contract. When a run
// ends while programs are parked in a World call, none of their code past
// that call runs, their defers run before the run returns, and the
// session stays reusable. A walker loops one call clockwise around a
// ring — a move, a MoveSeq or a RunSeq script — while the other agent
// holds still: it waits (parking in the flush of every fourth Wait), or
// loops a RunSeq script that is a single SeqWait escape. The holder's
// start moves the meeting across every offset of the walker's script,
// the lead lengths land some lead ends on the meeting round, and short
// budgets end some runs instead. Each program also defers a Move, which
// must send nothing: release resumes a program once. Checked through
// RunPrograms and RunMany, each run against a fresh session's.
func TestReleaseUnwindsParkedPrograms(t *testing.T) {
	g := graph.Cycle(40)
	type calls struct{ issued, returned, deferred int }
	looping := func(call func(agent.World), c *calls) agent.Program {
		return func(w agent.World) {
			defer func() { c.deferred++ }()
			defer w.Move(0)
			for {
				c.issued++
				call(w)
				c.returned++
			}
		}
	}
	script := func(actions ...int) func(agent.World) {
		return func(w agent.World) { agent.RunSeq(w, actions) }
	}
	walks := []func(agent.World){
		func(w agent.World) { w.Move(0) },
		func(w agent.World) { w.MoveSeq([]int{0, agent.ScriptWait, 0, 0}) },
		script(0, agent.SeqWait(3), 0, 0),
		script(0, 0, agent.SeqWait(2)),
	}
	holds := []func(agent.World){func(w agent.World) { w.Wait(1 << 20) }}
	for _, lead := range []uint64{1, 2, 3, 5, 7} {
		holds = append(holds, script(agent.SeqWait(lead)))
	}
	sess := sim.NewSession()
	defer sess.Close()
	var c [2]calls
	programs := func(walk, hold int) (agent.Program, agent.Program) {
		c = [2]calls{}
		return looping(walks[walk], &c[0]), looping(holds[hold], &c[1])
	}
	check := func(label string) {
		t.Helper()
		for i, ci := range c {
			if ci.deferred != 1 || ci.issued != ci.returned+1 {
				t.Fatalf("%s: agent %d made %d calls, %d returned, %d defers ran; want one call parked and one defer", label, i, ci.issued, ci.returned, ci.deferred)
			}
		}
	}
	for walk := range walks {
		for hold := range holds {
			for at := 1; at <= 9; at++ {
				for _, delay := range []uint64{0, 2} {
					for _, budget := range []uint64{1_000, 3 + uint64(at)} {
						label := fmt.Sprintf("walk %d hold %d at %d δ%d b%d", walk, hold, at, delay, budget)
						a, b := programs(walk, hold)
						got := sess.RunPrograms(g, a, b, 0, at, delay, sim.Config{Budget: budget})
						check("RunPrograms " + label)
						if want := sim.RunPrograms(g, a, b, 0, at, delay, sim.Config{Budget: budget}); got != want {
							t.Fatalf("RunPrograms %s: pooled %+v, fresh %+v", label, got, want)
						}
						a, b = programs(walk, hold)
						agents := []sim.MultiAgent{{Program: a, Start: 0}, {Program: b, Start: at, Appear: delay}}
						cfg := sim.MultiConfig{Budget: budget, StopOnFirstMeeting: true}
						gotMany := sess.RunMany(g, agents, cfg)
						check("RunMany " + label)
						if want := sim.RunMany(g, agents, cfg); !reflect.DeepEqual(gotMany, want) {
							t.Fatalf("RunMany %s: pooled %+v, fresh %+v", label, gotMany, want)
						}
					}
				}
			}
		}
	}
	// A program the run never started runs no line: A panics before its
	// first call, so B, due on the same round, is never resumed.
	started := false
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the program panic did not propagate")
			}
		}()
		sess.RunPrograms(g, func(agent.World) { panic("boom") }, func(agent.World) { started = true }, 0, 1, 0, sim.Config{Budget: 10})
	}()
	if started {
		t.Fatal("a program the run never started ran")
	}
}
