package sim_test

// Lone-run tests: sim.Solo answers every World call directly from the
// graph, so nothing but these tests pins its batched MoveSeq against the
// per-move reference (agent.Unbatched) or its pooled worlds against
// concurrent use. rendezvous's TestLoneClockMatchesEngine pins its clock
// against the engine's.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// soloRun is one lone run's answer.
type soloRun struct {
	clock  uint64
	node   int
	stream []int
}

func solo(g *graph.Graph, prog agent.Program, start int, budget uint64, record bool) soloRun {
	var rec []int
	if record {
		rec = []int{}
	}
	clock, node, stream := sim.Solo(g, prog, start, budget, rec)
	return soloRun{clock, node, stream}
}

// escapeScript exercises every script form: plain MoveSeq actions
// (absolute, entry-relative and ScriptWait), a RunSeq script with a
// SeqWait and a SeqRepeat block, and bare Move and Wait calls. It runs
// for escapeScriptRounds rounds.
func escapeScript(w agent.World) {
	w.MoveSeq([]int{0, agent.Rel(1), agent.ScriptWait, 1})
	agent.RunSeq(w, []int{1, agent.SeqWait(5), agent.SeqRepeat(3), 0, agent.Rel(0), agent.ScriptWait, agent.SeqWait(2), 2})
	w.Wait(7)
	w.Move(0)
	w.MoveSeq([]int{agent.ScriptWait, agent.ScriptWait, agent.Rel(2)})
}

const escapeScriptRounds = 4 + 1 + 5 + 3*3 + 2 + 1 + 7 + 1 + 3

// replayStream walks a recorded stream from start and returns the node
// it ends on: the stream names the port left by in every moving round.
func replayStream(g *graph.Graph, start int, stream []int) int {
	pos := start
	for _, a := range stream {
		if a != agent.ScriptWait {
			pos, _ = g.Succ(pos, a)
		}
	}
	return pos
}

// loneCase is a program of a kind the experiments run alone: a
// procedure that ends after duration rounds, or an endless program
// (duration 0), which always runs under a budget.
type loneCase struct {
	name     string
	g        *graph.Graph
	prog     agent.Program
	duration uint64
}

func loneCases(t *testing.T) []loneCase {
	symm, err := rendezvous.NewSymmRV(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	asymm, err := rendezvous.NewAsymmRV(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []loneCase{
		{"script", graph.Petersen(), escapeScript, escapeScriptRounds},
		{"SymmRV", graph.Cycle(5), symm, rendezvous.SymmRVTime(5, 2, 2)},
		{"AsymmRV", graph.TwoNode(), asymm, rendezvous.AsymmRVTime(2, 1)},
		{"UniversalRV", graph.Star(4), rendezvous.UniversalRV(), 0},
		{"lazyrandom", graph.Cycle(5), rendezvous.NewLazyRandomWalk(7), 0},
	}
}

// TestSoloBatchedMatchesUnbatched pins Solo's fused MoveSeq against the
// per-move reference: with agent.Unbatched every script runs through
// Move and Wait, and both must give the same clock, node and stream, run
// to the end and under budgets that cut every kind of call. The script's
// budgets take every value up to its length, so some cut a MoveSeq, a
// RunSeq block, a SeqWait and a Wait midway.
func TestSoloBatchedMatchesUnbatched(t *testing.T) {
	for _, c := range loneCases(t) {
		var budgets []uint64
		switch {
		case c.name == "script":
			for b := uint64(0); b <= c.duration+1; b++ {
				budgets = append(budgets, b)
			}
		case c.duration > 0:
			budgets = []uint64{0, 1, 17, 1_000, c.duration / 2, c.duration - 1, c.duration, c.duration + 1}
		default:
			budgets = []uint64{1, 2, 17, 1_000, 30_000}
		}
		for _, budget := range budgets {
			for v := range c.g.N() {
				name := fmt.Sprintf("%s on %s from %d, budget %d", c.name, c.g, v, budget)
				batched := solo(c.g, c.prog, v, budget, true)
				unbatched := solo(c.g, agent.Unbatched(c.prog), v, budget, true)
				quiet := solo(c.g, c.prog, v, budget, false)
				if batched.clock != unbatched.clock || batched.node != unbatched.node || !slices.Equal(batched.stream, unbatched.stream) {
					t.Fatalf("%s: batched ends at %d on node %d, unbatched at %d on node %d (streams equal: %v)", name,
						batched.clock, batched.node, unbatched.clock, unbatched.node, slices.Equal(batched.stream, unbatched.stream))
				}
				if quiet.clock != batched.clock || quiet.node != batched.node || quiet.stream != nil {
					t.Fatalf("%s: unrecorded run ends at %d on node %d, recorded at %d on node %d", name,
						quiet.clock, quiet.node, batched.clock, batched.node)
				}
				want := budget
				if budget == 0 || budget > c.duration && c.duration > 0 {
					want = c.duration
				}
				if batched.clock != want || uint64(len(batched.stream)) != want {
					t.Fatalf("%s: clock %d and %d actions, want %d", name, batched.clock, len(batched.stream), want)
				}
				if end := replayStream(c.g, v, batched.stream); end != batched.node {
					t.Fatalf("%s: the stream replays to node %d, the run ended on %d", name, end, batched.node)
				}
			}
		}
	}
}

// TestSoloConcurrent runs lone runs, recorded and not, from several
// goroutines on the pooled worlds; each must match its serial run.
func TestSoloConcurrent(t *testing.T) {
	type job struct {
		g      *graph.Graph
		prog   agent.Program
		start  int
		budget uint64
		record bool
	}
	var jobs []job
	for _, c := range loneCases(t) {
		budget := c.duration
		if budget == 0 {
			budget = 5_000
		}
		for v := range c.g.N() {
			jobs = append(jobs, job{c.g, c.prog, v, budget, true}, job{c.g, c.prog, v, budget / 2, false})
		}
	}
	want := make([]soloRun, len(jobs))
	for i, j := range jobs {
		want[i] = solo(j.g, j.prog, j.start, j.budget, j.record)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() { // each worker starts a quarter further into the jobs
			defer wg.Done()
			for i := range jobs {
				k := (i + w*len(jobs)/4) % len(jobs)
				j := jobs[k]
				got := solo(j.g, j.prog, j.start, j.budget, j.record)
				if got.clock != want[k].clock || got.node != want[k].node || !slices.Equal(got.stream, want[k].stream) {
					t.Errorf("worker %d, job %d: concurrent run differs from the serial one", w, k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSoloPanics checks that a program's own panic (a bad port) passes
// through Solo, and that a budget reached first unwinds the program
// before that move.
func TestSoloPanics(t *testing.T) {
	g := graph.Cycle(4)
	bad := func(w agent.World) {
		w.Move(0)
		w.Move(2)
	}
	func() {
		defer func() {
			var e agent.ErrBadPort
			if err, _ := recover().(error); !errors.As(err, &e) || e.Port != 2 || e.Degree != 2 {
				t.Fatalf("recovered %v, want a port-2 ErrBadPort", err)
			}
		}()
		sim.Solo(g, bad, 0, 0, nil)
	}()
	if clock, node, _ := sim.Solo(g, bad, 0, 1, nil); clock != 1 || node != 1 {
		t.Fatalf("budget 1: clock %d, node %d, want 1 and 1", clock, node)
	}
}
