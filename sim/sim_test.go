package sim

import (
	"sync/atomic"
	"testing"

	"repro/agent"
	"repro/graph"
)

func TestTwoNodeDelayExample(t *testing.T) {
	// The paper's introduction: on K2 with delay 3, identical agents
	// executing "move at each round" meet 3 rounds after the earlier
	// agent's start (0 rounds after the later one appears... check the
	// actual semantics: with odd delay they meet; the meeting round is the
	// first round both occupy a node together).
	g := graph.TwoNode()
	res := Run(g, agent.MoveEveryRound, 0, 1, 3, Config{Budget: 100})
	if res.Outcome != Met {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.MeetingRound != 3 {
		t.Fatalf("met at round %d, want 3", res.MeetingRound)
	}
	if res.TimeFromLater != 0 {
		t.Fatalf("time from later %d, want 0", res.TimeFromLater)
	}
}

func TestTwoNodeSimultaneousNeverMeets(t *testing.T) {
	// Delay 0 from symmetric positions: they swap forever (and crossing in
	// an edge is not a meeting).
	g := graph.TwoNode()
	res := Run(g, agent.MoveEveryRound, 0, 1, 0, Config{Budget: 500})
	if res.Outcome != BudgetExhausted {
		t.Fatalf("outcome %v, want budget exhaustion", res.Outcome)
	}
	if res.MovesA != 500 || res.MovesB != 500 {
		t.Fatalf("moves %d/%d, want 500 each", res.MovesA, res.MovesB)
	}
}

func TestTwoNodeEvenDelayNeverMeets(t *testing.T) {
	g := graph.TwoNode()
	res := Run(g, agent.MoveEveryRound, 0, 1, 2, Config{Budget: 500})
	if res.Outcome != BudgetExhausted {
		t.Fatalf("outcome %v, want budget exhaustion", res.Outcome)
	}
}

func TestWaitForMommy(t *testing.T) {
	// Oracle baseline: B sits, A walks the ring. They meet when A reaches
	// B's node.
	g := graph.Cycle(6)
	walker := func(w agent.World) {
		for {
			w.Move(0)
		}
	}
	res := RunPrograms(g, walker, agent.Sit, 0, 3, 0, Config{Budget: 100})
	if res.Outcome != Met || res.MeetingNode != 3 || res.MeetingRound != 3 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestMeetingAtAppearance(t *testing.T) {
	// The earlier agent walks to the later agent's start and waits there;
	// the meeting happens in the exact round the later agent appears.
	g := graph.Path(3)
	camper := func(w agent.World) {
		if w.Degree() == 1 { // start at node 0
			w.Move(0)
			w.Move(1)
		}
		w.Wait(1 << 30)
	}
	res := RunPrograms(g, camper, agent.Sit, 0, 2, 10, Config{Budget: 1 << 31})
	if res.Outcome != Met {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.MeetingRound != 10 || res.TimeFromLater != 0 {
		t.Fatalf("meeting round %d (from later %d), want 10 (0)", res.MeetingRound, res.TimeFromLater)
	}
}

func TestFastForwardLongWaits(t *testing.T) {
	// Mutual waits of astronomical length must simulate quickly.
	g := graph.TwoNode()
	prog := func(w agent.World) {
		w.Wait(1 << 40)
		w.Move(0)
		w.Wait(1 << 40)
	}
	res := Run(g, prog, 0, 1, 1, Config{Budget: 1 << 41})
	if res.Outcome != Met {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.MeetingRound != (1<<40)+1 {
		t.Fatalf("meeting round %d", res.MeetingRound)
	}
}

func TestNeverMeetDetection(t *testing.T) {
	// Both programs halt immediately at distinct nodes: the simulator must
	// prove no meeting is possible rather than burn the budget.
	g := graph.Path(4)
	halt := func(w agent.World) {}
	res := Run(g, halt, 0, 3, 0, Config{Budget: 1 << 40})
	if res.Outcome != NeverMeet {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Rounds > 4 {
		t.Fatalf("took %d rounds to detect never-meet", res.Rounds)
	}
}

func TestTimelineSeesEveryRound(t *testing.T) {
	g := graph.Cycle(4)
	prog := func(w agent.World) {
		w.Move(0)
		w.Wait(2)
		w.Move(0)
		w.Wait(1 << 20)
	}
	tl := CaptureTimeline(g, prog, 0, 2, 100, 8) // delay beyond budget: B never appears
	if tl.Result.Outcome != BudgetExhausted {
		t.Fatalf("outcome %v", tl.Result.Outcome)
	}
	want := []int{0, 1, 1, 1, 2, 2, 2, 2, 2}
	if len(tl.Rounds) != len(want) {
		t.Fatalf("timeline holds %d rounds, want %d", len(tl.Rounds), len(want))
	}
	for i, p := range tl.Rounds {
		if p.Round != uint64(i) || p.PosA != want[i] || p.PosB != -1 {
			t.Fatalf("round %d: got %+v, want A at %d, B absent", i, p, want[i])
		}
	}
}

func TestEntryPortAndDegreePercepts(t *testing.T) {
	g := graph.Path(3) // 0 -1- 2, interior node 1 has port 0 to 0, port 1 to 2
	type obs struct{ deg, entry int }
	var seen []obs
	prog := func(w agent.World) {
		seen = append(seen, obs{w.Degree(), w.EntryPort()})
		w.Move(0)
		seen = append(seen, obs{w.Degree(), w.EntryPort()})
		w.Move(1)
		seen = append(seen, obs{w.Degree(), w.EntryPort()})
		w.Wait(1 << 20)
	}
	// B appears after the budget: a grant earned on a meeting round never
	// reaches the program.
	res := RunPrograms(g, prog, agent.Sit, 0, 2, 100, Config{Budget: 10})
	if res.Outcome != BudgetExhausted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	want := []obs{{1, -1}, {2, 0}, {1, 0}}
	if len(seen) != 3 {
		t.Fatalf("seen %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("percept %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}

func TestClock(t *testing.T) {
	g := graph.TwoNode()
	var clocks []uint64
	prog := func(w agent.World) {
		clocks = append(clocks, w.Clock())
		w.Wait(5)
		clocks = append(clocks, w.Clock())
		w.Move(0)
		clocks = append(clocks, w.Clock())
		w.Wait(1 << 20)
	}
	RunPrograms(g, prog, agent.Sit, 0, 1, 200, Config{Budget: 100}) // B appears after the budget
	want := []uint64{0, 5, 6}
	for i := range want {
		if clocks[i] != want[i] {
			t.Fatalf("clock %d = %d, want %d", i, clocks[i], want[i])
		}
	}
}

func TestBadPortPanicsWithDiagnostics(t *testing.T) {
	g := graph.TwoNode()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if _, ok := r.(agent.ErrBadPort); !ok {
			t.Fatalf("panic value %v", r)
		}
	}()
	Run(g, func(w agent.World) { w.Move(5) }, 0, 1, 0, Config{Budget: 10})
}

func TestLaterAgentClockStartsAtAppearance(t *testing.T) {
	// The later agent's program must behave identically regardless of the
	// delay (it has no global clock): its first percept and clock are the
	// same as the earlier agent's.
	g := graph.Cycle(5)
	var firstClocks []uint64
	prog := func(w agent.World) {
		firstClocks = append(firstClocks, w.Clock())
		for {
			w.Move(0)
		}
	}
	Run(g, prog, 0, 2, 7, Config{Budget: 50})
	if len(firstClocks) != 2 || firstClocks[0] != 0 || firstClocks[1] != 0 {
		t.Fatalf("clocks at appearance: %v", firstClocks)
	}
}

func TestScriptPrograms(t *testing.T) {
	g := graph.Cycle(4)
	prog := agent.Script([]int{0, agent.ScriptWait, 0})
	res := RunPrograms(g, prog, agent.Sit, 0, 2, 0, Config{Budget: 10})
	if res.Outcome != Met || res.MeetingRound != 3 {
		t.Fatalf("script run %+v", res)
	}
	if _, err := agent.ScriptWord("N.ES"); err != nil {
		t.Fatalf("ScriptWord: %v", err)
	}
	if _, err := agent.ScriptWord("NX"); err == nil {
		t.Fatal("ScriptWord accepted garbage")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.OrientedTorus(4, 4)
	prog := func(w agent.World) {
		for i := 0; ; i++ {
			w.Move(i % w.Degree())
			w.Wait(uint64(i % 3))
		}
	}
	a := Run(g, prog, 0, 9, 5, Config{Budget: 10000})
	b := Run(g, prog, 0, 9, 5, Config{Budget: 10000})
	if a != b {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func TestParallelMap(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var calls atomic.Int64
	out := ParallelMap(items, 8, func(x int) int {
		calls.Add(1)
		return x * x
	})
	if calls.Load() != 100 {
		t.Fatalf("f called %d times", calls.Load())
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Degenerate cases.
	if len(ParallelMap(nil, 4, func(x int) int { return x })) != 0 {
		t.Fatal("empty input")
	}
	one := ParallelMap([]int{7}, 0, func(x int) int { return x + 1 })
	if one[0] != 8 {
		t.Fatal("single item")
	}
}

func TestParallelSweepOfRuns(t *testing.T) {
	// Many independent simulations in parallel give identical results to
	// sequential execution.
	g := graph.Cycle(8)
	type task struct {
		v     int
		delay uint64
	}
	var tasks []task
	for v := 1; v < 8; v++ {
		for d := uint64(0); d < 4; d++ {
			tasks = append(tasks, task{v, d})
		}
	}
	run := func(tk task) Result {
		return Run(g, agent.MoveEveryRound, 0, tk.v, tk.delay, Config{Budget: 200})
	}
	seq := make([]Result, len(tasks))
	for i, tk := range tasks {
		seq[i] = run(tk)
	}
	par := ParallelMap(tasks, 8, run)
	for i := range tasks {
		if seq[i] != par[i] {
			t.Fatalf("task %d: parallel result differs", i)
		}
	}
}

// TestCloseStopsEveryCoroutine: Close must end every pooled runner's
// coroutine, not just drop the runners — a runner that is never stopped
// leaks one parked goroutine. The pool is filled by runs that end every
// way a run can (a meeting, programs that returned, the budget, a
// program panic); after Close each captured runner's coroutine must
// report its sequence over.
func TestCloseStopsEveryCoroutine(t *testing.T) {
	s := NewSession()
	g := graph.Cycle(6)
	s.RunPrograms(g, agent.MoveEveryRound, agent.Sit, 0, 3, 1, Config{Budget: 100})
	s.RunPrograms(g, agent.Script([]int{0, 0}), agent.Script([]int{1}), 0, 3, 0, Config{Budget: 100})
	s.RunMany(g, []MultiAgent{
		{Program: agent.MoveEveryRound, Start: 0},
		{Program: agent.Sit, Start: 2, Appear: 4},
		{Program: agent.Sit, Start: 4},
	}, MultiConfig{Budget: 50})
	func() {
		defer func() { _ = recover() }()
		s.RunPrograms(g, func(w agent.World) { panic("boom") }, agent.Sit, 0, 3, 0, Config{Budget: 100})
	}()
	pooled := append([]*runner(nil), s.free...)
	if len(pooled) < 3 {
		t.Fatalf("pool holds %d runners, want at least 3", len(pooled))
	}
	s.Close()
	for i, r := range pooled {
		if _, ok := r.next(); ok {
			t.Fatalf("pooled runner %d: coroutine still running after Close", i)
		}
	}
}
