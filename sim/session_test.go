package sim_test

// Pooled-runner session tests: isolation of reused runners across
// consecutive cases of a Sweep shard (run under -race in CI), stash
// reuse, panic propagation through pooled workers, and the steady-state
// allocation guarantee of the k-agent phase loop.

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

// TestReleaseDeliversEarnedGrants pins release's contract: when a run
// ends, every agent first acts on each grant it earned and only then
// unwinds, so an agent.Traced trajectory read the moment the run returns
// agrees with MultiResult.Moves. The walker meets the sitter on the
// round of a move whose grant it has not yet received; dropping that
// grant would leave its trace one move short. Checked through RunMany.
func TestReleaseDeliversEarnedGrants(t *testing.T) {
	g := graph.Cycle(6)
	const n = 6 // sitter appearance delays 0..5
	sess := sim.NewSession()
	defer sess.Close()
	for d := 0; d < n; d++ {
		var traces [2]agent.Trace
		res := sess.RunMany(g, []sim.MultiAgent{
			{Program: agent.Traced(agent.MoveEveryRound, &traces[0]), Start: 0},
			{Program: agent.Traced(agent.Sit, &traces[1]), Start: 3, Appear: uint64(d)},
		}, sim.MultiConfig{Budget: 1_000, StopOnFirstMeeting: true})
		if len(res.Meetings) != 1 {
			t.Fatalf("delay %d: want one meeting, got %+v", d, res)
		}
		for i := range traces {
			if got := traces[i].Moves(); uint64(got) != res.Moves[i] {
				t.Fatalf("delay %d agent %d: trace holds %d moves, result %d", d, i, got, res.Moves[i])
			}
		}
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

// countCalls loops one batched call forever — MoveSeq, or RunSeq when
// quiet — counting the calls that returned into *n.
func countCalls(script []int, quiet bool, n *uint64) agent.Program {
	return func(w agent.World) {
		for {
			if quiet {
				agent.RunSeq(w, script)
			} else {
				w.MoveSeq(script)
			}
			*n++
		}
	}
}

// TestReleaseDeliversScriptedGrants is the release contract on the burst
// path. A walker loops one script clockwise around a ring while the other
// agent holds still: it sits, or loops a script that is a single SeqWait
// escape, so its whole call is a lead whose end earns a grant. Each call
// takes a fixed number of rounds, so by the meeting round t an agent
// appearing at round a has earned exactly (t-a)/rounds grants, a grant
// earned on round t included, and its count must say so once the run
// returns. The holder's start moves the meeting across every offset of
// the walker's script, its last action included, and the lead lengths
// land some lead ends on the meeting round. Checked through RunPrograms
// and RunMany.
func TestReleaseDeliversScriptedGrants(t *testing.T) {
	g := graph.Cycle(40)
	walks := []struct {
		script []int
		quiet  bool
		rounds uint64
	}{
		{[]int{0, 0, 0, 0}, false, 4},
		{[]int{0, agent.ScriptWait, 0, 0, agent.ScriptWait}, false, 5},
		{[]int{0, agent.SeqWait(3), 0, 0}, true, 6},
		{[]int{0, 0, agent.SeqWait(2)}, true, 4},
	}
	type caze struct {
		walk, at, lead int // lead 0: the holder sits
		delay          uint64
	}
	var cases []caze
	for wi := range walks {
		for at := 1; at <= 9; at++ {
			for _, lead := range []int{0, 1, 2, 3, 5, 7} {
				for _, delay := range []uint64{0, 2} {
					cases = append(cases, caze{wi, at, lead, delay})
				}
			}
		}
	}
	counts := make([][2]uint64, len(cases))
	programs := func(i int) (agent.Program, agent.Program) {
		c := cases[i]
		counts[i] = [2]uint64{}
		walker := countCalls(walks[c.walk].script, walks[c.walk].quiet, &counts[i][0])
		if c.lead == 0 {
			return walker, agent.Sit
		}
		return walker, countCalls([]int{agent.SeqWait(uint64(c.lead))}, true, &counts[i][1])
	}
	leadEndsOnMeeting := 0
	check := func(label string, i int, round uint64) {
		t.Helper()
		c := cases[i]
		want := [2]uint64{round / walks[c.walk].rounds}
		if c.lead > 0 {
			want[1] = (round - c.delay) / uint64(c.lead)
			if (round-c.delay)%uint64(c.lead) == 0 {
				leadEndsOnMeeting++
			}
		}
		if counts[i] != want {
			t.Fatalf("%s case %+v: meeting at round %d, calls returned %v, want %v", label, c, round, counts[i], want)
		}
	}
	multi := func(i int) []sim.MultiAgent {
		a, b := programs(i)
		return []sim.MultiAgent{{Program: a, Start: 0}, {Program: b, Start: cases[i].at, Appear: cases[i].delay}}
	}
	cfg := sim.MultiConfig{Budget: 1_000, StopOnFirstMeeting: true}
	sess := sim.NewSession()
	defer sess.Close()
	for i := range cases {
		a, b := programs(i)
		res := sess.RunPrograms(g, a, b, 0, cases[i].at, cases[i].delay, sim.Config{Budget: 1_000})
		if res.Outcome != sim.Met {
			t.Fatalf("RunPrograms case %+v: %+v", cases[i], res)
		}
		check("RunPrograms", i, res.MeetingRound)
	}
	for i := range cases {
		res := sess.RunMany(g, multi(i), cfg)
		check("RunMany", i, res.Meetings[0].Round)
	}
	if leadEndsOnMeeting == 0 {
		t.Fatal("no case ended a lead on the meeting round")
	}
}
