package sim_test

// Differential engine-equivalence suite for the k-agent scheduler: the
// direct-execution RunMany (burst fast-forward, pooled runners, meeting
// detection only on rounds a step stops for) must produce a
// MultiResult identical field by field — including the order of the
// Meetings slice and the per-agent Moves — to RunManyReference, the
// retained round-by-round engine, on hundreds of randomized cases mixing
// graph families, agent counts, appearance rounds, budgets, stop modes
// and program shapes (scripts with wait runs, per-move walkers, waiters,
// terminating programs, and the real UniversalRV).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// randProgram picks a deterministic program shape. The shapes are chosen
// to exercise every scheduler path: batched scripts (with and without
// in-script wait runs), unbatched per-move interaction, long waits (the
// O(1) fast-forward), early termination (NeverMeet/allDone detection),
// grants whose degree streams drive the next script (with deferred waits
// merging across those scripts' boundaries),
// and the full phase pipeline of UniversalRV.
func randProgram(r *rand.Rand) (agent.Program, string) {
	switch r.Intn(11) {
	case 0: // oblivious script of absolute ports
		n := 1 + r.Intn(24)
		actions := make([]int, n)
		for i := range actions {
			actions[i] = r.Intn(4)
		}
		return agent.Script(actions), fmt.Sprintf("script%v", actions)
	case 1: // script mixing waits, absolute and entry-relative moves
		n := 1 + r.Intn(32)
		actions := make([]int, n)
		for i := range actions {
			switch r.Intn(3) {
			case 0:
				actions[i] = agent.ScriptWait
			case 1:
				actions[i] = r.Intn(4)
			default:
				actions[i] = agent.Rel(r.Intn(3))
			}
		}
		return agent.Script(actions), fmt.Sprintf("mixed%v", actions)
	case 2: // unbatched per-move walker that terminates
		steps := 1 + r.Intn(20)
		port := r.Intn(2)
		return func(w agent.World) {
			for i := 0; i < steps; i++ {
				w.Move(port % w.Degree())
			}
		}, fmt.Sprintf("walk-%d-p%d", steps, port)
	case 3: // move forever
		return agent.MoveEveryRound, "move-every-round"
	case 4: // sit forever (wait fast-forward)
		return agent.Sit, "sit"
	case 5: // terminate immediately (allDone detection)
		return func(agent.World) {}, "halt"
	case 6: // looping script + long waits
		wait := uint64(1 + r.Intn(1000))
		return func(w agent.World) {
			for {
				w.MoveSeq([]int{0, agent.Rel(0)})
				w.Wait(wait)
			}
		}, fmt.Sprintf("bounce-wait-%d", wait)
	case 7: // degree-driven walker: every script's ports come from the
		// previous grant's degree stream — the percept-feedback loop the
		// stream exists for. The pre-script wait exercises the
		// wait-merge boundary (the pad rides the script as its lead).
		pad := uint64(r.Intn(12))
		return func(w agent.World) {
			script := []int{0}
			for {
				w.Wait(pad)
				entries, degs := w.MoveSeq(script)
				last := len(degs) - 1
				script = []int{degs[last] - 1, agent.Rel(entries[last] % 2), agent.ScriptWait}
			}
		}, fmt.Sprintf("degwalk-pad%d", pad)
	case 8: // degree-read script behind a LONG deferred wait (the flush
		// path rather than the fold path), with in-script waits.
		wait := uint64(300 + r.Intn(2000))
		steps := 1 + r.Intn(6)
		return func(w agent.World) {
			script := []int{0, agent.ScriptWait, agent.Rel(0)}
			for i := 0; i < steps; i++ {
				w.Wait(wait)
				_, degs := w.MoveSeq(script)
				script = []int{degs[0] - 1, agent.ScriptWait, agent.Rel(0)}
			}
		}, fmt.Sprintf("degflush-%d-%d", wait, steps)
	case 9: // quiet stream with run-length escapes: agent.RunSeq scripts
		// mixing moves, ScriptWait runs, SeqWait gaps (which lead the next
		// action) and SeqRepeat blocks — closed ones, which the engine
		// replays after walking a copy, pieces of them, and ones that
		// drift, which it walks copy by copy. The unbatched population
		// expands them through the reference fallback (MoveSeq segments +
		// Wait), pinning the encoding's semantics. Every population checks
		// the Clock() it reads after each script, and the degree and entry
		// it perceives there decide an extra move, so a script that ends
		// on another node or entry changes the run's move count.
		script := randSeqScript(r)
		return func(w agent.World) {
			for {
				want := w.Clock() + seqRounds(script)
				agent.RunSeq(w, script)
				if got := w.Clock(); got != want {
					panic(fmt.Sprintf("Clock() = %d after RunSeq(%v), want %d", got, script, want))
				}
				if (w.Degree()+w.EntryPort())%2 == 0 {
					w.Move(0)
				}
			}
		}, fmt.Sprintf("seq%v", script)
	default: // the real thing
		return rendezvous.UniversalRV(), "universal"
	}
}

// randSeqScript builds a RunSeq script of one to four parts: plain
// actions, a SeqWait gap, an out-and-back block, the same block around
// its head and its tail as blocks of their own (each of which replaces
// the runner's record), a block of ScriptWaits, and a block of random
// actions, which mostly drifts. An out-and-back copy goes out through a
// port or a Rel move, a ScriptWait possibly before or after, and back by
// the entry, so it ends on the node it began from, with the entry it
// began with or (a Rel move out) a shifted one. Blocks run 1–40 copies, and
// every script runs at least one round.
func randSeqScript(r *rand.Rand) []int {
	action := func() int {
		switch r.Intn(3) {
		case 0:
			return agent.ScriptWait
		case 1:
			return r.Intn(4)
		}
		return agent.Rel(r.Intn(3))
	}
	outAndBack := func() []int {
		out := r.Intn(3)
		if r.Intn(2) == 0 {
			out = agent.Rel(out)
		}
		switch r.Intn(3) {
		case 0:
			return []int{out, agent.Rel(0)}
		case 1:
			return []int{out, agent.ScriptWait, agent.Rel(0)}
		}
		return []int{agent.ScriptWait, out, agent.Rel(0)}
	}
	copies := func() int { return agent.SeqRepeat(uint64(1 + r.Intn(40))) }
	var script []int
	for parts := 1 + r.Intn(4); parts > 0 || seqRounds(script) == 0; parts-- {
		switch r.Intn(6) {
		case 0:
			for n := 1 + r.Intn(3); n > 0; n-- {
				script = append(script, action())
			}
		case 1:
			script = append(script, agent.SeqWait(uint64(1+r.Intn(900))))
		case 2:
			script = append(append(script, copies()), outAndBack()...)
		case 3:
			blk := outAndBack()
			k := 1 + r.Intn(len(blk)-1)
			script = append(append(script, copies()), blk...)
			script = append(append(script, agent.SeqRepeat(1)), blk[:k]...)
			script = append(append(script, agent.SeqRepeat(1)), blk[k:]...)
			script = append(append(script, copies()), blk...)
		case 4:
			script = append(script, copies(), agent.ScriptWait)
		default:
			script = append(script, copies())
			for n := 1 + r.Intn(3); n > 0; n-- {
				script = append(script, action())
			}
		}
	}
	return script
}

// seqRounds is the rounds a RunSeq script runs: n for a SeqWait(n), one
// for each other action, times the copies of the block it is in.
func seqRounds(script []int) uint64 {
	rounds, copies := uint64(0), uint64(1)
	for _, a := range script {
		if n, ok := agent.SeqWaitRounds(a); ok {
			rounds, copies = rounds+n, 1
		} else if n, ok := agent.SeqRepeatCount(a); ok {
			copies = n
		} else {
			rounds += copies
		}
	}
	return rounds
}

func randGraph(r *rand.Rand) *graph.Graph {
	switch r.Intn(6) {
	case 0:
		return graph.Cycle(3 + r.Intn(6))
	case 1:
		return graph.Path(2 + r.Intn(5))
	case 2:
		return graph.Star(3 + r.Intn(4))
	case 3:
		return graph.OrientedTorus(3, 3)
	case 4:
		return graph.Tree(graph.ChainShape(2 + r.Intn(3)))
	default:
		return graph.RandomConnected(4+r.Intn(5), 3, uint64(r.Intn(1000)))
	}
}

func TestEngineEquivalenceRunManyRandomized(t *testing.T) {
	const cases = 300
	r := rand.New(rand.NewSource(0xC0FFEE))
	for ci := 0; ci < cases; ci++ {
		g := randGraph(r)
		k := 2 + r.Intn(4)
		agents := make([]sim.MultiAgent, k)
		var names []string
		for i := range agents {
			prog, name := randProgram(r)
			appear := uint64(0)
			if r.Intn(2) == 1 {
				appear = uint64(r.Intn(40))
			}
			agents[i] = sim.MultiAgent{Program: prog, Start: r.Intn(g.N()), Appear: appear}
			names = append(names, fmt.Sprintf("%s@%d+%d", name, agents[i].Start, appear))
		}
		cfg := sim.MultiConfig{
			Budget:             uint64(1 + r.Intn(3000)),
			StopOnGather:       r.Intn(2) == 1,
			StopOnFirstMeeting: r.Intn(3) == 0,
		}
		got := sim.RunMany(g, agents, cfg)
		want := sim.RunManyReference(g, agents, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: engines disagree\n  graph:  %s\n  agents: %v\n  cfg:    %+v\n  direct:    %+v\n  reference: %+v",
				ci, g, names, cfg, got, want)
		}
		if err := sim.GatherCheck(got); err != nil {
			t.Fatalf("case %d: %v (%+v)", ci, err, got)
		}
	}
}

// TestEngineEquivalenceRunManyUniversal pins the heavyweight end-to-end
// case: k UniversalRV agents with mixed appearance rounds must produce
// identical results (meeting order included) through both engines.
func TestEngineEquivalenceRunManyUniversal(t *testing.T) {
	prog := rendezvous.UniversalRV()
	cases := []struct {
		g      *graph.Graph
		starts []int
		appear []uint64
		budget uint64
	}{
		{graph.Path(3), []int{0, 1, 2}, []uint64{0, 0, 1}, 200_000},
		{graph.Cycle(4), []int{0, 1, 3}, []uint64{0, 1, 3}, 150_000},
		{graph.Cycle(6), []int{0, 2, 4}, []uint64{0, 0, 0}, 100_000},
	}
	for _, c := range cases {
		agents := make([]sim.MultiAgent, len(c.starts))
		for i := range agents {
			agents[i] = sim.MultiAgent{Program: prog, Start: c.starts[i], Appear: c.appear[i]}
		}
		cfg := sim.MultiConfig{Budget: c.budget}
		got := sim.RunMany(c.g, agents, cfg)
		want := sim.RunManyReference(c.g, agents, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: engines disagree\n  direct:    %+v\n  reference: %+v", c.g, got, want)
		}
	}
}

// TestEngineEquivalenceRunManyBatchedVsUnbatched re-pins the batched
// semantics on the k-agent path: two populations of the same programs —
// fully batched and fully per-move (Unbatched, which degrades every
// MoveSeq to the RunScript reference, degree stream included) — must
// behave identically through the direct engine, mid-script appearances
// and wait-merge boundaries included.
func TestEngineEquivalenceRunManyBatchedVsUnbatched(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for ci := 0; ci < 60; ci++ {
		g := randGraph(r)
		k := 2 + r.Intn(3)
		mk := func(wrap func(agent.Program) agent.Program) []sim.MultiAgent {
			rr := rand.New(rand.NewSource(int64(ci)))
			agents := make([]sim.MultiAgent, k)
			for i := range agents {
				prog, _ := randProgram(rr)
				if wrap != nil {
					prog = wrap(prog)
				}
				agents[i] = sim.MultiAgent{Program: prog, Start: rr.Intn(g.N()), Appear: uint64(rr.Intn(10))}
			}
			return agents
		}
		cfg := sim.MultiConfig{Budget: uint64(1 + r.Intn(1500)), StopOnGather: r.Intn(2) == 1}
		a := sim.RunMany(g, mk(nil), cfg)
		b := sim.RunMany(g, mk(agent.Unbatched), cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("case %d on %s: batched vs unbatched disagree\n  batched:   %+v\n  unbatched: %+v", ci, g, a, b)
		}
	}
}

// TestEngineEquivalenceRunManyLargeK pins the one pairwise meeting scan
// at large k (32, 48 or 64 agents) against the reference engine: full
// MultiResult equality including the Meetings order, on dense
// populations where many pairs co-locate in the same round.
func TestEngineEquivalenceRunManyLargeK(t *testing.T) {
	r := rand.New(rand.NewSource(0xB17))
	for ci := 0; ci < 12; ci++ {
		g := randGraph(r)
		k := 32 + r.Intn(3)*16 // 32, 48 or 64
		agents := make([]sim.MultiAgent, k)
		for i := range agents {
			prog, _ := randProgram(r)
			appear := uint64(0)
			if r.Intn(2) == 1 {
				appear = uint64(r.Intn(30))
			}
			agents[i] = sim.MultiAgent{Program: prog, Start: r.Intn(g.N()), Appear: appear}
		}
		cfg := sim.MultiConfig{
			Budget:             uint64(1 + r.Intn(800)),
			StopOnGather:       r.Intn(2) == 1,
			StopOnFirstMeeting: r.Intn(4) == 0,
		}
		got := sim.RunMany(g, agents, cfg)
		want := sim.RunManyReference(g, agents, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (k=%d) on %s: engines disagree\n  direct:    %+v\n  reference: %+v", ci, k, g, got, want)
		}
		if err := sim.GatherCheck(got); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
	}
}

// TestEngineEquivalenceRunManyStaggeredLeads pins RunMany to
// RunManyReference on 3–5 agents that loop short RunSeq scripts with
// SeqWait gaps of different lengths, so some agents sit in leads while
// others move: the burst kernel's held agents. The graphs are tiny, so
// pairs meet early and agents often gather, and the run goes on to the
// budget or to the gathering (StopOnGather on and off): the stretches
// where only gathering, or nothing, is left to detect. The suite must
// include runs in which every pair met before the agents gathered, and
// runs in which every pair met and they never did. The last cases spread
// 32–40 agents over rings of 40–79 nodes, so the bursts' pairwise scan
// runs at large k, mostly on pairs that have not met.
func TestEngineEquivalenceRunManyStaggeredLeads(t *testing.T) {
	r := rand.New(rand.NewSource(0x5EED5))
	graphs := []*graph.Graph{graph.TwoNode(), graph.Path(3), graph.Cycle(3), graph.Star(3), graph.Cycle(4)}
	var metThenGathered, metNeverGathered int
	for ci := 0; ci < 324; ci++ {
		g := graphs[r.Intn(len(graphs))]
		k := 3 + r.Intn(3)
		if ci >= 300 {
			g, k = graph.Cycle(40+r.Intn(40)), 32+r.Intn(9)
		}
		agents := make([]sim.MultiAgent, k)
		var names []string
		for i := range agents {
			script := make([]int, 1+r.Intn(4))
			for j := range script {
				if r.Intn(3) == 0 {
					script[j] = agent.Rel(r.Intn(3))
				} else {
					script[j] = r.Intn(3)
				}
			}
			gap := uint64(1 + r.Intn(12))
			if r.Intn(2) == 0 {
				script = append(script, agent.SeqWait(gap))
			} else {
				script = append([]int{agent.SeqWait(gap)}, script...)
			}
			agents[i] = sim.MultiAgent{
				Program: func(w agent.World) {
					for {
						agent.RunSeq(w, script)
					}
				},
				Start:  r.Intn(g.N()),
				Appear: uint64(r.Intn(4)),
			}
			names = append(names, fmt.Sprintf("%v@%d+%d", script, agents[i].Start, agents[i].Appear))
		}
		cfg := sim.MultiConfig{Budget: uint64(50 + r.Intn(600)), StopOnGather: r.Intn(2) == 0}
		got := sim.RunMany(g, agents, cfg)
		want := sim.RunManyReference(g, agents, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d on %s: engines disagree\n  agents:    %v\n  cfg:       %+v\n  direct:    %+v\n  reference: %+v",
				ci, g, names, cfg, got, want)
		}
		if len(got.Meetings) == k*(k-1)/2 {
			last := got.Meetings[len(got.Meetings)-1].Round
			switch {
			case !got.Gathered:
				metNeverGathered++
			case got.GatherRound > last:
				metThenGathered++
			}
		}
	}
	if metThenGathered == 0 || metNeverGathered == 0 {
		t.Fatalf("coverage: %d runs met then gathered, %d met and never gathered; want both", metThenGathered, metNeverGathered)
	}
	t.Logf("%d runs met then gathered, %d met and never gathered", metThenGathered, metNeverGathered)
}
