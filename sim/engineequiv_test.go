package sim_test

// Engine-equivalence suite: batched (MoveSeq) and unbatched (per-move)
// execution of the same programs must produce byte-identical sim.Result
// values — same outcome, meeting node and round, elapsed rounds, and move
// counts — across the graph families, delays and budgets the STIC tests
// exercise. agent.Unbatched degrades every MoveSeq call to the per-move
// reference path (the seed engine's only path), so each case runs the
// exact same algorithm through both execution engines.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// sameResult runs the program pair through two engines — fully batched
// and fully per-move (Unbatched, which degrades every MoveSeq call to
// the RunScript reference, degree stream included) — and compares the
// full Result structs. The rendezvous producers read the grant's degree
// stream on every path these cases exercise.
func sameResult(t *testing.T, name string, g *graph.Graph, pa, pb agent.Program, u, v int, delay, budget uint64) {
	t.Helper()
	batched := sim.RunPrograms(g, pa, pb, u, v, delay, sim.Config{Budget: budget})
	unbatched := sim.RunPrograms(g, agent.Unbatched(pa), agent.Unbatched(pb), u, v, delay, sim.Config{Budget: budget})
	if batched != unbatched {
		t.Fatalf("%s: engines disagree\n  batched:   %+v\n  unbatched: %+v", name, batched, unbatched)
	}
}

func TestEngineEquivalenceSymmRV(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		u, v int
		d    uint64
	}{
		{graph.TwoNode(), 0, 1, 1},
		{graph.Cycle(4), 0, 2, 2},
		{graph.Cycle(5), 0, 2, 2},
		{graph.Cycle(6), 1, 4, 3},
		{graph.SymmetricTree(graph.ChainShape(1)), 0, 2, 1},
		{graph.SymmetricTree(graph.FullShape(2, 2)), 0, 1, 1},
		{graph.OrientedTorus(3, 3), 0, 4, 2},
	}
	for _, c := range cases {
		n := uint64(c.g.N())
		for _, delta := range []uint64{c.d, c.d + 1, c.d + 3} {
			prog, err := rendezvous.NewSymmRV(n, c.d, delta)
			if err != nil {
				t.Fatal(err)
			}
			budget := 2 * rendezvous.SymmRVTime(n, c.d, delta)
			name := fmt.Sprintf("SymmRV/%s-(%d,%d)-δ%d", c.g, c.u, c.v, delta)
			sameResult(t, name, c.g, prog, prog, c.u, c.v, delta, budget)
		}
	}
}

func TestEngineEquivalenceSymmRVNeverMeets(t *testing.T) {
	// δ below Shrink: both engines must run the full padded duration and
	// report the same non-meeting result with equal move counts.
	g := graph.Cycle(8)
	prog, err := rendezvous.NewSymmRV(8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "SymmRV/ring-8-below-shrink", g, prog, prog, 0, 4, 3, 3*rendezvous.SymmRVTime(8, 3, 3))
}

func TestEngineEquivalenceAsymmRV(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		u, v int
	}{
		{graph.Path(3), 0, 2},
		{graph.Path(4), 0, 1},
		{graph.Star(4), 0, 1},
		{graph.Tree(graph.ChainShape(3)), 0, 3},
	}
	for _, c := range cases {
		n := uint64(c.g.N())
		for _, delta := range []uint64{0, 2} {
			prog, err := rendezvous.NewAsymmRV(n, delta)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("AsymmRV/%s-(%d,%d)-δ%d", c.g, c.u, c.v, delta)
			sameResult(t, name, c.g, prog, prog, c.u, c.v, delta, 2*rendezvous.AsymmRVTime(n, delta))
		}
	}
}

func TestEngineEquivalenceDeepening(t *testing.T) {
	for _, delta := range []uint64{0, 1} {
		prog, err := rendezvous.NewAsymmRVID(3, delta)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Path(3)
		name := fmt.Sprintf("AsymmRVID/path-3-δ%d", delta)
		sameResult(t, name, g, prog, prog, 0, 2, delta, 2*rendezvous.AsymmRVIDTime(3, delta))
	}
}

func TestEngineEquivalenceUnpaddedSymmRV(t *testing.T) {
	// The ablation desynchronizes on nonsymmetric pairs — both engines
	// must desynchronize identically.
	prog, err := rendezvous.NewUnpaddedSymmRV(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path(4)
	sameResult(t, "UnpaddedSymmRV/path-4", g, prog, prog, 0, 2, 2, 2*rendezvous.SymmRVTime(4, 1, 2))
}

func TestEngineEquivalenceUniversalRV(t *testing.T) {
	cases := []struct {
		g      *graph.Graph
		u, v   int
		delta  uint64
		budget uint64
	}{
		{graph.TwoNode(), 0, 1, 1, 2 * rendezvous.UniversalRVTimeBound(2, 1, 1)},
		{graph.TwoNode(), 0, 1, 0, rendezvous.UniversalRVTimeBound(2, 1, 2)}, // infeasible
		{graph.Path(3), 0, 2, 0, 2 * rendezvous.UniversalRVTimeBound(3, 1, 0)},
	}
	for _, c := range cases {
		name := fmt.Sprintf("UniversalRV/%s-δ%d", c.g, c.delta)
		sameResult(t, name, c.g, rendezvous.UniversalRV(), rendezvous.UniversalRV(), c.u, c.v, c.delta, c.budget)
	}
}

func TestEngineEquivalenceFastUniversalRV(t *testing.T) {
	g := graph.Path(3)
	bound := rendezvous.FastUniversalRVTimeBound(3, 1, 0)
	sameResult(t, "FastUniversalRV/path-3", g, rendezvous.FastUniversalRV(), rendezvous.FastUniversalRV(), 0, 2, 0, 2*bound)
}

func TestEngineEquivalenceBaselines(t *testing.T) {
	// Wait-for-Mommy: a leader looping batched UXS round trips against a
	// sitter, several delays.
	g := graph.Cycle(7)
	leader, nonLeader := rendezvous.WaitForMommy(7)
	for _, delta := range []uint64{0, 3, 5} {
		sameResult(t, fmt.Sprintf("WaitForMommy/δ%d", delta), g, leader, nonLeader, 0, 4, delta, 10*rendezvous.UXSRoundTrip(7))
	}

	// Doubling (labeled) baseline on a ring.
	p1, err := rendezvous.NewDoublingRV(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rendezvous.NewDoublingRV(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	g5 := graph.Cycle(5)
	for _, delta := range []uint64{0, 1, 7} {
		sameResult(t, fmt.Sprintf("DoublingRV/δ%d", delta), g5, p1, p2, 0, 2, delta, 1<<24)
	}
}

func TestEngineEquivalenceScriptPrograms(t *testing.T) {
	// Oblivious scripts exercise raw MoveSeq batching, including in-script
	// wait runs (coalesced by the scheduler) and mid-script budget cuts.
	torus := graph.OrientedTorus(3, 3)
	words := []string{
		"NNEESSWW",
		"N.E.S.W.",
		"...N...E",
		"NESWNESWNESWNESW",
	}
	for _, wordA := range words {
		progA, err := agent.ScriptWord(wordA)
		if err != nil {
			t.Fatal(err)
		}
		for _, wordB := range words {
			progB, err := agent.ScriptWord(wordB)
			if err != nil {
				t.Fatal(err)
			}
			for _, delay := range []uint64{0, 1, 2} {
				// Budgets below, at and past the script lengths, so runs
				// end mid-script, between scripts and after termination.
				for _, budget := range []uint64{3, 7, 16, 64} {
					name := fmt.Sprintf("Script/%s-vs-%s-δ%d-b%d", wordA, wordB, delay, budget)
					sameResult(t, name, torus, progA, progB, 0, 4, delay, budget)
				}
			}
		}
	}
}

func TestEngineEquivalenceLongWaitRuns(t *testing.T) {
	// In-script wait runs take the scheduler's coalesced fast-forward
	// path; budgets are chosen to cut runs mid-way and to outlast them.
	g := graph.Cycle(4)
	script := make([]int, 0, 2003)
	script = append(script, 0)
	for i := 0; i < 2000; i++ {
		script = append(script, agent.ScriptWait)
	}
	script = append(script, agent.Rel(0), 0)
	prog := agent.Script(script)
	for _, delay := range []uint64{0, 1} {
		for _, budget := range []uint64{100, 2001, 5000} {
			name := fmt.Sprintf("WaitRun/δ%d-b%d", delay, budget)
			sameResult(t, name, g, prog, prog, 0, 2, delay, budget)
		}
	}
}

func TestEngineEquivalenceObserverTimeline(t *testing.T) {
	// The observer path (no fast-forwarding, per-round callbacks) must see
	// identical per-round positions from both engines.
	g := graph.OrientedTorus(3, 3)
	prog, err := agent.ScriptWord("NN..EE..SSWW")
	if err != nil {
		t.Fatal(err)
	}
	a := sim.CaptureTimeline(g, prog, 0, 4, 2, 30)
	b := sim.CaptureTimeline(g, agent.Unbatched(prog), 0, 4, 2, 30)
	if a.Result != b.Result {
		t.Fatalf("timeline results disagree: %+v vs %+v", a.Result, b.Result)
	}
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("timeline lengths disagree: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("round %d disagrees: %+v vs %+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}

func TestEngineEquivalenceMultiAgent(t *testing.T) {
	// RunMany drives the same runner machinery; a mixed batched/unbatched
	// population must gather identically either way.
	g := graph.Cycle(6)
	prog, err := agent.ScriptWord("NNNNNNNN")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p agent.Program) []sim.MultiAgent {
		return []sim.MultiAgent{
			{Program: p, Start: 0, Appear: 0},
			{Program: p, Start: 2, Appear: 1},
			{Program: p, Start: 4, Appear: 2},
		}
	}
	cfg := sim.MultiConfig{Budget: 100, StopOnFirstMeeting: true}
	a := sim.RunMany(g, mk(prog), cfg)
	b := sim.RunMany(g, mk(agent.Unbatched(prog)), cfg)
	if a.Rounds != b.Rounds || a.Gathered != b.Gathered || len(a.Meetings) != len(b.Meetings) {
		t.Fatalf("multi-agent engines disagree: %+v vs %+v", a, b)
	}
	for i := range a.Meetings {
		if a.Meetings[i] != b.Meetings[i] {
			t.Fatalf("meeting %d disagrees: %+v vs %+v", i, a.Meetings[i], b.Meetings[i])
		}
	}
	for i := range a.Moves {
		if a.Moves[i] != b.Moves[i] {
			t.Fatalf("agent %d moves disagree: %d vs %d", i, a.Moves[i], b.Moves[i])
		}
	}
}

// TestEngineEquivalencePairRandomized pins RunPrograms on
// randomized cases: both programs from randProgram, the graph from
// randGraph, delays 0–5 and budgets short enough to cut runs inside
// bursts. Every case runs on one pooled session. The batched run must
// equal the Unbatched one field by field, and its meeting, Rounds and
// per-agent moves must match RunManyReference on the same two agents.
// An observer makes the loop step one round at a time, and both modes
// record a meeting before any request of its round is pulled, so the
// bursts must make exactly the observed run's wakeups.
func TestEngineEquivalencePairRandomized(t *testing.T) {
	sess := sim.NewSession()
	defer sess.Close()
	// check returns the plain run's result and the rounds it replayed.
	check := func(name string, g *graph.Graph, pa, pb agent.Program, u, v int, delay uint64, cfg sim.Config) (sim.Result, uint64) {
		t.Helper()
		got := sess.RunPrograms(g, pa, pb, u, v, delay, cfg)
		wakeups, replayed := sess.Wakeups(), sess.Replayed()
		watched := cfg
		watched.Observer = func(uint64, int, int) {}
		if want := sess.RunPrograms(g, pa, pb, u, v, delay, watched); got != want {
			t.Fatalf("%s: observed run disagrees\n  plain:    %+v\n  observed: %+v", name, got, want)
		}
		if w := sess.Wakeups(); wakeups != w {
			t.Fatalf("%s: %d wakeups, %d round by round (%+v)", name, wakeups, w, got)
		}
		if want := sess.RunPrograms(g, agent.Unbatched(pa), agent.Unbatched(pb), u, v, delay, cfg); got != want {
			t.Fatalf("%s: batched vs unbatched disagree\n  batched:   %+v\n  unbatched: %+v", name, got, want)
		}
		ref := sim.RunManyReference(g, []sim.MultiAgent{
			{Program: pa, Start: u},
			{Program: pb, Start: v, Appear: delay},
		}, sim.MultiConfig{Budget: cfg.Budget, StopOnFirstMeeting: true})
		met := got.Outcome == sim.Met
		if met != (len(ref.Meetings) == 1) || got.Rounds != ref.Rounds ||
			got.MovesA != ref.Moves[0] || got.MovesB != ref.Moves[1] ||
			met && (got.MeetingRound != ref.Meetings[0].Round || got.MeetingNode != ref.Meetings[0].Node) {
			t.Fatalf("%s: RunPrograms and the k=2 reference disagree\n  pair:      %+v\n  reference: %+v", name, got, ref)
		}
		return got, replayed
	}
	// Meetings on a round where one agent's script ends in a ScriptWait
	// while the other steps onto it: the wait is walked inside the burst,
	// yet the round must count as one with a waiting agent.
	ring := graph.Cycle(12)
	waver := func(w agent.World) {
		for {
			w.MoveSeq([]int{0, agent.ScriptWait})
		}
	}
	stepper := func(w agent.World) {
		for {
			w.MoveSeq([]int{1})
		}
	}
	for v := 1; v < ring.N(); v++ {
		for delay := uint64(0); delay < 3; delay++ {
			check(fmt.Sprintf("wait-ending meeting v=%d δ%d", v, delay), ring, waver, stepper, 0, v, delay, sim.Config{Budget: 100})
		}
	}
	// A RunSeq script of SeqRepeat actions alone runs no round, as its
	// expansion makes no call.
	idler := func(w agent.World) {
		for {
			agent.RunSeq(w, []int{agent.SeqRepeat(2), agent.SeqRepeat(5)})
			w.Move(0)
		}
	}
	for delay := uint64(0); delay < 3; delay++ {
		check(fmt.Sprintf("marker-only scripts δ%d", delay), ring, idler, stepper, 0, 5, delay, sim.Config{Budget: 50})
	}
	// Meetings on every round of a replayed block copy. After a 3-round
	// lead the looper runs a closed 5-round block (two nodes out, a
	// ScriptWait, back by a Rel move and a port) 40 times: its first copy
	// starts unmoved and does not close, the second closes, and the rest
	// replay from round 13 on. Steppers walk the ring both ways, so
	// across starts and delays the meeting lands on each round of a
	// replayed copy; the short budgets end runs inside one.
	const lead, blockLen, replayFrom = 3, 5, 13
	looper := func(w agent.World) {
		for {
			agent.RunSeq(w, []int{agent.SeqWait(lead), agent.SeqRepeat(40), 0, 0, agent.ScriptWait, agent.Rel(0), 1})
		}
	}
	forward := func(w agent.World) {
		for {
			w.MoveSeq([]int{0})
		}
	}
	ring30 := graph.Cycle(30)
	var metAt [blockLen]bool
	cutMidCopy := false
	for v := 3; v < ring30.N(); v++ {
		for delay := uint64(0); delay < 5; delay++ {
			for i, budget := range []uint64{100, 100, 16, 19} {
				walker := stepper
				if i == 1 {
					walker = forward
				}
				name := fmt.Sprintf("block meeting %d v=%d δ%d b%d", i, v, delay, budget)
				got, replayed := check(name, ring30, looper, walker, 0, v, delay, sim.Config{Budget: budget})
				switch {
				case replayed == 0:
				case got.Outcome == sim.Met && got.MeetingRound > replayFrom:
					metAt[(got.MeetingRound-lead-1)%blockLen] = true
				case got.Outcome == sim.BudgetExhausted && (budget-lead)%blockLen != 0:
					cutMidCopy = true
				}
			}
		}
	}
	for i, ok := range metAt {
		if !ok {
			t.Errorf("no meeting on round %d of a replayed copy", i+1)
		}
	}
	if !cutMidCopy {
		t.Error("no budget ended inside a replayed copy")
	}
	r := rand.New(rand.NewSource(0x9A1B))
	for ci := 0; ci < 300; ci++ {
		g := randGraph(r)
		pa, na := randProgram(r)
		pb, nb := randProgram(r)
		u, v := r.Intn(g.N()), r.Intn(g.N())
		delay := uint64(r.Intn(6))
		cfg := sim.Config{Budget: uint64(1 + r.Intn(1500))}
		check(fmt.Sprintf("case %d: %s@%d vs %s@%d δ%d b%d on %s", ci, na, u, nb, v, delay, cfg.Budget, g), g, pa, pb, u, v, delay, cfg)
	}
}
