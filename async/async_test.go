package async

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

func TestExtractActions(t *testing.T) {
	g := graph.Cycle(4)
	prog := func(w agent.World) {
		w.Move(0)
		w.Wait(2)
		w.Move(1)
	}
	acts := ExtractActions(nil, g, prog, 0, 100)
	want := []int{0, agent.ScriptWait, agent.ScriptWait, 1}
	if !slices.Equal(acts, want) {
		t.Fatalf("actions %v, want %v", acts, want)
	}
}

func TestExtractActionsCaps(t *testing.T) {
	g := graph.TwoNode()
	sit := func(w agent.World) { w.Wait(1 << 40) }
	for _, c := range []struct {
		name string
		prog agent.Program
		max  int
		want int
	}{
		{"moves", agent.MoveEveryRound, 50, 50},
		{"waits", sit, 10, 10},
		{"one move", agent.MoveEveryRound, 1, 1},
		{"one wait", sit, 1, 1},
		{"zero", agent.MoveEveryRound, 0, 0},
		{"negative", agent.MoveEveryRound, -3, 0},
		{"zero waits", sit, 0, 0},
	} {
		if acts := ExtractActions(nil, g, c.prog, 0, c.max); len(acts) != c.want {
			t.Fatalf("%s: cap %d recorded %d actions, want %d", c.name, c.max, len(acts), c.want)
		}
	}
}

// TestExtractActionsAllocsOnce pins the stream's single allocation at E15's
// cap: growing it by append instead costs dozens of reallocations and
// several times the final size in garbage per extraction. A second
// extraction into the returned stream reuses it, leaving at most the
// lone world's. The collector is paused while counting: each fresh
// extraction allocates about 0.5 MiB, and the cycles that triggers add
// runtime allocations of their own.
func TestExtractActionsAllocsOnce(t *testing.T) {
	g := graph.TwoNode()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var acts []int
	allocs := testing.AllocsPerRun(3, func() {
		if acts = ExtractActions(nil, g, agent.MoveEveryRound, 0, 60_000); len(acts) != 60_000 {
			t.Fatalf("cap not applied: %d", len(acts))
		}
	})
	if allocs > 3 {
		t.Fatalf("ExtractActions allocates %.0f times at a 60,000 cap, want at most 3", allocs)
	}
	allocs = testing.AllocsPerRun(3, func() {
		again := ExtractActions(acts, g, agent.MoveEveryRound, 1, 60_000)
		if len(again) != 60_000 || &again[0] != &acts[0] {
			t.Fatalf("stream not reused: %d actions", len(again))
		}
	})
	if allocs > 1 {
		t.Fatalf("ExtractActions into a reused stream allocates %.0f times, want at most 1", allocs)
	}
}

// TestExtractActionsReuseMatchesFresh checks that a reused stream holds
// exactly what a fresh extraction does, longer or shorter than before.
func TestExtractActionsReuseMatchesFresh(t *testing.T) {
	g := graph.Cycle(6)
	prog := rendezvous.UniversalRV()
	buf := ExtractActions(nil, g, agent.MoveEveryRound, 0, 500)
	for _, max := range []int{300, 200, 500, 0, 400} {
		fresh := ExtractActions(nil, g, prog, 2, max)
		buf = ExtractActions(buf, g, prog, 2, max)
		if !slices.Equal(buf, fresh) {
			t.Fatalf("cap %d: reused stream differs from a fresh one", max)
		}
	}
}

func TestSynchronizingAdversaryDefeatsEveryProgramOnSymmetricStarts(t *testing.T) {
	// The conclusion's claim, demonstrated: from symmetric positions the
	// lock-step adversary prevents node meetings for ANY program — here
	// checked for the strongest one we have (UniversalRV) and a battery
	// of scripted behaviours.
	type caze struct {
		g    *graph.Graph
		u, v int
	}
	cases := []caze{
		{graph.TwoNode(), 0, 1},
		{graph.Cycle(4), 0, 2},
		{graph.Cycle(6), 0, 3},
		{graph.OrientedTorus(3, 3), 0, 4},
	}
	progs := []agent.Program{
		rendezvous.UniversalRV(),
		agent.MoveEveryRound,
		agent.Script([]int{0, 1, agent.ScriptWait, 0, 0, 1, 1, agent.ScriptWait, 1}),
	}
	for _, c := range cases {
		for pi, prog := range progs {
			a := ExtractActions(nil, c.g, prog, c.u, 30_000)
			b := ExtractActions(nil, c.g, prog, c.v, 30_000)
			res := Run(c.g, a, b, c.u, c.v, Synchronizing{})
			if res.Met {
				t.Fatalf("%s prog %d: synchronizing adversary allowed a meeting at %d", c.g, pi, res.Node)
			}
		}
	}
}

func TestLagAdversaryOnTwoNode(t *testing.T) {
	// A genuine semantic difference from the synchronous model: an
	// unscheduled asynchronous agent is *present* at its start node (the
	// adversary merely withholds its moves), whereas a synchronous later
	// agent is absent until its start round. On K2 with "move every
	// round", Lag(δ) therefore meets for every δ >= 1 — for even δ the
	// lagging agent is simply walked over while held at its node — while
	// the synchronous run meets only for odd δ. Lag(0) coincides with the
	// synchronizing adversary and never meets.
	g := graph.TwoNode()
	for delta := 0; delta <= 4; delta++ {
		a := ExtractActions(nil, g, agent.MoveEveryRound, 0, 200)
		b := ExtractActions(nil, g, agent.MoveEveryRound, 1, 200)
		asyncRes := Run(g, a, b, 0, 1, Lag{Delay: delta})
		if want := delta >= 1; asyncRes.Met != want {
			t.Fatalf("δ=%d: async met=%v, want %v", delta, asyncRes.Met, want)
		}
		// The synchronous model agrees on odd delays (where the meeting
		// happens between two moving agents, not by walking over a held
		// one).
		if delta%2 == 1 {
			syncRes := sim.Run(g, agent.MoveEveryRound, 0, 1, uint64(delta), sim.Config{Budget: 300})
			if syncRes.Outcome != sim.Met {
				t.Fatalf("δ=%d: sync run should meet", delta)
			}
		}
	}
}

func TestAsyncNodeMeetingStillPossibleFromAsymmetry(t *testing.T) {
	// Space still breaks symmetry under the synchronizing adversary:
	// path-3 endpoints both step into the middle and meet.
	g := graph.Path(3)
	prog := agent.Script([]int{0})
	a := ExtractActions(nil, g, prog, 0, 10)
	b := ExtractActions(nil, g, prog, 2, 10)
	res := Run(g, a, b, 0, 2, Synchronizing{})
	if !res.Met || res.Node != 1 {
		t.Fatalf("expected meeting at node 1, got %+v", res)
	}
}

func TestRunDegenerateSameStart(t *testing.T) {
	g := graph.Cycle(4)
	res := Run(g, nil, nil, 2, 2, Synchronizing{})
	if !res.Met {
		t.Fatal("co-located start must meet immediately")
	}
}
