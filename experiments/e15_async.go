package experiments

import (
	"fmt"
	"slices"

	"repro/agent"
	"repro/async"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
	"repro/view"
)

// E15 measures the paper's concluding remark: asynchrony hands the delay
// to the adversary, so time cannot break symmetry. For each symmetric
// configuration, the synchronizing adversary (advance both agents in
// lock-step, nullifying any intended delay) defeats every program we can
// throw at it — including UniversalRV, which in the synchronous model
// with δ >= Shrink is guaranteed to meet. Asymmetric configurations still
// meet: space survives asynchrony, time does not.
func E15() *Table {
	t := &Table{
		ID:       "E15",
		Title:    "Asynchronous adversary nullifies time",
		PaperRef: "Section 5 (conclusion): asynchronous rendezvous needs space, not time",
		Columns:  []string{"graph", "pair", "class", "program", "sync δ=Shrink", "async (synchronizing)"},
	}
	type caze struct {
		g     *graph.Graph
		u, v  int
		symm  bool
		delta uint64 // feasible synchronous delay for the sync column
	}
	cases := []caze{
		{graph.TwoNode(), 0, 1, true, 1},
		{graph.Cycle(4), 0, 2, true, 2},
		{graph.OrientedTorus(3, 3), 0, 4, true, 2},
		{graph.Path(3), 0, 2, false, 0},
		{graph.Star(4), 0, 1, false, 0},
	}
	const steps = 60_000
	progs := []struct {
		name string
		prog agent.Program
	}{
		{"universal", rendezvous.UniversalRV()},
		{"move-always", agent.MoveEveryRound},
		{"script", agent.Script([]int{0, 1, agent.ScriptWait, 0, 0, 1})},
	}
	// Action extraction and both adversary runs are independent per
	// (case, program) job; they fan out over the sweep scheduler, keyed
	// by graph so each worker keeps one graph's data warm.
	type job struct {
		ci, pi int
	}
	type outcome struct {
		asyncRes async.Result
		lagRes   async.Result
		ranLag   bool
		same     bool // the two streams are identical
	}
	var jobs []job
	for ci := range cases {
		for pi := range progs {
			jobs = append(jobs, job{ci, pi})
		}
	}
	// Each worker extracts into its own two streams, reused across jobs.
	type streams struct{ a, b []int }
	outcomes := sim.Sweep(jobs, 0, func(j job) any { return cases[j.ci].g }, func(sc *sim.Scratch, j job) outcome {
		c, p := cases[j.ci], progs[j.pi]
		st := sc.Stash(func() any { return new(streams) }).(*streams)
		st.a = async.ExtractActions(st.a, c.g, p.prog, c.u, steps)
		st.b = async.ExtractActions(st.b, c.g, p.prog, c.v, steps)
		a, b := st.a, st.b
		o := outcome{same: slices.Equal(a, b)}
		o.asyncRes = async.Run(c.g, a, b, c.u, c.v, async.Synchronizing{})
		if c.symm && p.name == "universal" {
			// The synchronous run with δ = Shrink meets (Theorem 3.1);
			// the async adversary kills the very same program.
			o.lagRes = async.Run(c.g, a, b, c.u, c.v, async.Lag{Delay: int(c.delta)})
			o.ranLag = true
		}
		return o
	})
	for ji, j := range jobs {
		c, p, o := cases[j.ci], progs[j.pi], outcomes[ji]
		class := "nonsymmetric"
		if c.symm {
			class = "symmetric"
		}
		syncCell := "-"
		if o.ranLag {
			syncCell = fmt.Sprintf("met=%v (lag adversary)", o.lagRes.Met)
			t.Check(o.lagRes.Met, "%s: lag-δ adversary should allow the meeting", c.g)
		}
		asyncCell := "no meet"
		if o.asyncRes.Met {
			asyncCell = fmt.Sprintf("met at %d", o.asyncRes.Node)
		}
		t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), class, p.name, syncCell, asyncCell)
		if c.symm {
			t.Check(!o.asyncRes.Met, "%s %s: synchronizing adversary allowed a meeting", c.g, p.name)
			// The closure argument: two agents at distinct nodes with
			// equal views that take the same action enter their next
			// nodes by the same port, so those nodes differ (a port is
			// one edge's end) and again have equal views.
			t.Check(view.Symmetric(c.g, c.u, c.v), "%s (%d,%d): views differ", c.g, c.u, c.v)
			t.Check(o.same, "%s %s: the two action streams differ", c.g, p.name)
		} else if p.name == "universal" {
			t.Check(o.asyncRes.Met, "%s universal: asymmetric pair should still meet under lock-step", c.g)
		}
	}
	t.Notes = append(t.Notes,
		"Under node-meeting semantics, the lock-step adversary reduces every schedule to the synchronous δ=0 case, where Lemma 3.1 applies: symmetric starts never meet. The same action streams meet under the Lag(Shrink) adversary — the adversary, not the algorithm, owns the delay.",
		fmt.Sprintf("Action streams truncated at %d actions per agent; the symmetric no-meet rows are closure arguments (positions stay in the pair orbit), not mere budget exhaustion.", steps))
	return t
}
