package sim

import (
	"fmt"
	"testing"

	"repro/agent"
	"repro/graph"
)

// BenchmarkRoundThroughput measures raw scheduler speed: rounds per second
// with both agents moving every round (the worst case for the lock-step
// hand-off — no fast-forwarding possible).
func BenchmarkRoundThroughput(b *testing.B) {
	g := graph.Cycle(64)
	walker := func(w agent.World) {
		for {
			w.Move(0)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunPrograms(g, walker, walker, 0, 1, 0, Config{Budget: 100_000})
		if res.Outcome != BudgetExhausted {
			b.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// uxsStyleScript builds a long entry-relative walk script — the shape of
// one UXS application (port 0, then Rel-encoded terms), the hot loop of
// every algorithm in package rendezvous.
func uxsStyleScript(steps, n int) []int {
	script := make([]int, steps)
	script[0] = 0
	x := uint64(12345)
	for i := 1; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		script[i] = agent.Rel(int(x>>33) % n)
	}
	return script
}

// BenchmarkScriptedWalk measures the batched execution engine: both
// agents loop a long MoveSeq script, so the scheduler steps positions in
// its tight lock-step loop, resuming each program once per script.
func BenchmarkScriptedWalk(b *testing.B) {
	benchWalk(b, false)
}

// BenchmarkPerMoveWalk is the identical walk through the per-move
// reference path (one wakeup — a coroutine switch into each program and
// back — per agent per round): the seed engine's only mode, kept as the
// speedup baseline.
func BenchmarkPerMoveWalk(b *testing.B) {
	benchWalk(b, true)
}

func benchWalk(b *testing.B, unbatched bool) {
	g := graph.Cycle(64)
	script := uxsStyleScript(4096, 64)
	prog := func(w agent.World) {
		for {
			w.MoveSeq(script)
		}
	}
	if unbatched {
		prog = agent.Unbatched(prog)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunPrograms(g, prog, prog, 0, 32, 0, Config{Budget: 100_000})
		if res.Outcome != BudgetExhausted {
			b.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkMultiScriptedWalk measures the k-agent direct-execution
// scheduler's raw round throughput with every agent looping a long
// script — the k-agent analogue of BenchmarkScriptedWalk, and the
// number to compare against it (the engine rework targets multi-agent
// sweeps within an order of magnitude of two-agent scripted speed; the
// gap is the O(k²) per-round meeting scan).
func BenchmarkMultiScriptedWalk(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := graph.Cycle(64)
			script := uxsStyleScript(4096, 64)
			prog := func(w agent.World) {
				for {
					w.MoveSeq(script)
				}
			}
			agents := make([]MultiAgent, k)
			for i := range agents {
				agents[i] = MultiAgent{Program: prog, Start: (i * 64) / k}
			}
			sess := NewSession()
			defer sess.Close()
			cfg := MultiConfig{Budget: 100_000}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := sess.RunMany(g, agents, cfg)
				if res.Rounds != 100_000 {
					b.Fatalf("unexpected early stop at %d", res.Rounds)
				}
			}
			b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// BenchmarkFastForward measures the wait fast-path: two agents trading
// astronomical waits must finish in microseconds regardless of the
// simulated round count.
func BenchmarkFastForward(b *testing.B) {
	g := graph.TwoNode()
	sleeper := func(w agent.World) {
		for i := 0; i < 100; i++ {
			w.Wait(1 << 40)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Run(g, sleeper, 0, 1, 0, Config{Budget: 1 << 50})
		if res.Outcome != NeverMeet {
			b.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
}

// runShard runs the W-case benchmark shard on sess, one RunPrograms call
// per case: the delay/budget grid of one program pair at fixed starts —
// the shard shape production sweeps emit (E7's grid varies delay and
// budget over a fixed instance; E12 sweeps delays per seed). The pair is
// the paper's "waiting for Mommy" reduction: prog, a scripted searcher
// built by shardSearcher, against agent.Sit.
func runShard(sess *Session, g *graph.Graph, prog agent.Program, w int) {
	for i := 0; i < w; i++ {
		sess.RunPrograms(g, prog, agent.Sit, 0, 17, uint64(i%7), Config{Budget: uint64(48 + 4*(i%5))})
	}
}

// shardSearcher is runShard's searcher: it alternates one application
// of script with an equal hold (the enhanced-trajectory discipline the
// rendezvous algorithms use to tolerate unknown delay).
func shardSearcher(script []int) agent.Program {
	return func(wd agent.World) {
		for {
			wd.MoveSeq(script)
			wd.Wait(uint64(len(script)))
		}
	}
}

// reportCases adds the per-case metrics: how many cases per second the
// engine sustains, and what one case costs.
func reportCases(b *testing.B, casesPerOp int) {
	total := float64(casesPerOp) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "cases/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/case")
}

// BenchmarkInstrumentedShard pins the observability overhead on the
// engine path every two-agent case takes: the W=64 shard of runShard on
// one pooled session. The obs publishing contract (run totals flushed as
// a handful of atomic adds at run end, nothing per wakeup) must keep
// this at 0 allocs/op; TestInstrumentedShardAllocs enforces that as a
// hard test.
func BenchmarkInstrumentedShard(b *testing.B) {
	g := graph.Cycle(32)
	prog := shardSearcher(uxsStyleScript(32, 32))
	const w = 64
	sess := NewSession()
	defer sess.Close()
	runShard(sess, g, prog, w) // warm the pool
	before := obsRuns[runKindPair].Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runShard(sess, g, prog, w)
	}
	b.StopTimer()
	if obsRuns[runKindPair].Value() == before {
		b.Fatal("instrumentation did not publish")
	}
	reportCases(b, w)
}

// BenchmarkParallelSweep measures the experiment-harness pattern: many
// independent runs fanned out over the worker pool, at several pool
// sizes, so the speedup curve is visible in the bench output.
func BenchmarkParallelSweep(b *testing.B) {
	g := graph.Cycle(16)
	type task struct {
		v     int
		delay uint64
	}
	var tasks []task
	for v := 1; v < 16; v++ {
		for d := uint64(0); d < 8; d++ {
			tasks = append(tasks, task{v, d})
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParallelMap(tasks, workers, func(tk task) Result {
					return Run(g, agent.MoveEveryRound, 0, tk.v, tk.delay, Config{Budget: 5_000})
				})
			}
		})
	}
}
