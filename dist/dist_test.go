package dist_test

// The acceptance suite of the dispatcher: randomized differential tests
// pinning dist-executed sweeps against the raw in-process sim.Sweep on
// FULL result equality — sim.Result / sim.MultiResult field by field,
// Meetings order and wakeup counts included — across mixed graphs,
// parameter blocks, case kinds and worker counts, through every backend:
// in-process protocol workers, forked subprocesses of this very test
// binary (TestMain calls dist.RunWorkerIfChild, so the binary doubles as
// its own rvworker), and TCP connections.

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"

	"repro/agent"
	"repro/dist"
	"repro/graph"
	"repro/internal/simtest"
	"repro/sim"
)

func TestMain(m *testing.M) {
	if os.Getenv(dist.WorkerEnv) != "" && os.Getenv(exitAfterResultEnv) != "" {
		_ = dist.Serve(os.Stdin, &exitAfterWrites{w: os.Stdout, left: 2})
		os.Exit(0)
	}
	dist.RunWorkerIfChild()
	os.Exit(m.Run())
}

// exitAfterResultEnv turns a self-exec'd worker of this test binary into
// one that writes its hello and one result frame and then exits with
// status 3 at once (see TestWorkerExitAfterResultLosesNoFrame).
const exitAfterResultEnv = "RV_DIST_TEST_EXIT_AFTER_RESULT"

// exitAfterWrites is a worker's stdout that ends the process as soon as
// its left-th write has returned. Serve flushes each small frame in one
// write.
type exitAfterWrites struct {
	w    io.Writer
	left int
}

func (e *exitAfterWrites) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if e.left--; e.left == 0 {
		os.Exit(3)
	}
	return n, err
}

// TestWorkerExitAfterResultLosesNoFrame forks a worker that answers its
// one shard and exits the moment the answer is written, often before the
// coordinator has read it. The frame must still arrive: the worker
// process is reaped by its connection's reader after the pipe's end, or
// by Close, never while the pipe is being read. Close then reports the
// exit status.
func TestWorkerExitAfterResultLosesNoFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a worker process")
	}
	t.Setenv(exitAfterResultEnv, "1")
	var p dist.Planner
	var cases []planCase
	g := graph.Cycle(6)
	for v := 1; v < 6; v++ {
		c := dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: dist.ProgDesc{Name: "universal"},
			ProgB: dist.ProgDesc{Name: "sit"}, V: v, Delay: 1, Budget: 2000}
		p.Add(0, g, c)
		cases = append(cases, planCase{g: g, c: c})
	}
	want := rawSweep(t, cases)
	be, err := dist.NewLocal(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(be)
	closeErr := be.Close()
	if err != nil {
		t.Fatalf("the worker's one result frame was lost: %v", err)
	}
	assertEqualResults(t, "exit-after-result sweep", got, want)
	if closeErr == nil || !strings.Contains(closeErr.Error(), "worker exited: exit status 3") {
		t.Fatalf("Close returned %v, want the worker's exit status 3", closeErr)
	}
}

// randDistGraph mirrors the engine-equivalence suite's graph mix.
func randDistGraph(r *rand.Rand) *graph.Graph {
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

// randRunnableProg draws a descriptor whose program exercises scripts,
// waits, randomized walks and the real UniversalRV, with bounded budgets
// in mind.
func randRunnableProg(r *rand.Rand, seedLo, seedHi uint64) dist.ProgDesc {
	switch r.Intn(8) {
	case 0:
		return dist.ProgDesc{Name: "sit"}
	case 1:
		return dist.ProgDesc{Name: "moveevery"}
	case 2, 3:
		n := 1 + r.Intn(24)
		actions := make([]int, n)
		for i := range actions {
			switch r.Intn(3) {
			case 0:
				actions[i] = -1 // ScriptWait
			case 1:
				actions[i] = r.Intn(4)
			default:
				actions[i] = -2 - r.Intn(3) // Rel
			}
		}
		return dist.ProgDesc{Name: "script", Args: dist.ScriptProgArgs(actions)}
	case 4:
		seed := seedLo + uint64(r.Intn(int(seedHi-seedLo)))
		return dist.ProgDesc{Name: "lazyrandom", Args: []uint64{seed}}
	case 5:
		seed := seedLo + uint64(r.Intn(int(seedHi-seedLo)))
		return dist.ProgDesc{Name: "randomwalk", Args: []uint64{seed}}
	case 6:
		return dist.ProgDesc{Name: "universal"}
	default:
		return dist.ProgDesc{Name: "doubling", Args: []uint64{uint64(2 + r.Intn(6)), uint64(1 + r.Intn(2))}}
	}
}

// buildPlan builds a randomized case grid over a few graphs — the mixed
// (graph, parameter-block) shard population — and returns the planner
// plus the graphs/cases needed to compute the raw in-process expectation.
type planCase struct {
	g *graph.Graph
	c dist.CaseDesc
}

func buildPlan(r *rand.Rand) (*dist.Planner, []planCase) {
	const seedLo, seedHi = 500, 1500
	ngraphs := 1 + r.Intn(4)
	graphs := make([]*graph.Graph, ngraphs)
	for i := range graphs {
		graphs[i] = randDistGraph(r)
	}
	p := &dist.Planner{}
	var cases []planCase
	ncases := 1 + r.Intn(24)
	for i := 0; i < ncases; i++ {
		gi := r.Intn(ngraphs)
		g := graphs[gi]
		var c dist.CaseDesc
		if r.Intn(2) == 0 {
			c = dist.CaseDesc{
				Kind:   dist.KindTwoAgent,
				ProgA:  randRunnableProg(r, seedLo, seedHi),
				ProgB:  randRunnableProg(r, seedLo, seedHi),
				U:      r.Intn(g.N()),
				V:      r.Intn(g.N()),
				Delay:  uint64(r.Intn(40)),
				Budget: uint64(1 + r.Intn(3000)),
			}
		} else {
			agents := make([]dist.AgentDesc, 2+r.Intn(3))
			for j := range agents {
				agents[j] = dist.AgentDesc{
					Prog:   randRunnableProg(r, seedLo, seedHi),
					Start:  r.Intn(g.N()),
					Appear: uint64(r.Intn(20)),
				}
			}
			c = dist.CaseDesc{
				Kind:               dist.KindMulti,
				Agents:             agents,
				StopOnGather:       r.Intn(2) == 0,
				StopOnFirstMeeting: r.Intn(4) == 0,
				Budget:             uint64(1 + r.Intn(3000)),
			}
		}
		// Key by graph index with a parameter-block flavor bit, so some
		// shards share a graph but are still distinct shards — mirroring
		// sweeps keyed by (graph, parameter block).
		key := [2]int{gi, r.Intn(2)}
		p.Add(key, g, c)
		p.SetSeedRange(key, seedLo, seedHi)
		cases = append(cases, planCase{g: g, c: c})
	}
	return p, cases
}

// rawSweep computes the expectation through the plain in-process
// sim.Sweep — the same pooled sessions the experiments used before the
// dispatcher existed, running on the ORIGINAL graph objects (no codec in
// sight). This is the invariant's right-hand side.
func rawSweep(t *testing.T, cases []planCase) []dist.CaseResult {
	t.Helper()
	idx := make([]int, len(cases))
	for i := range idx {
		idx[i] = i
	}
	// Program resolution errors are test bugs; panic rather than t.Fatal —
	// a Goexit inside a Sweep worker goroutine would deadlock the pool.
	mustBuild := func(p dist.ProgDesc) agent.Program {
		prog, err := dist.BuildProgram(p)
		if err != nil {
			panic(err)
		}
		return prog
	}
	return sim.Sweep(idx, 2, func(i int) any { return cases[i].g }, func(sc *sim.Scratch, i int) dist.CaseResult {
		g, c := cases[i].g, &cases[i].c
		out := dist.CaseResult{Kind: c.Kind}
		switch c.Kind {
		case dist.KindTwoAgent:
			out.Two = sc.Session().RunPrograms(g, mustBuild(c.ProgA), mustBuild(c.ProgB), c.U, c.V, c.Delay, sim.Config{Budget: c.Budget})
		default:
			agents := make([]sim.MultiAgent, len(c.Agents))
			for j := range c.Agents {
				agents[j] = sim.MultiAgent{Program: mustBuild(c.Agents[j].Prog), Start: c.Agents[j].Start, Appear: c.Agents[j].Appear}
			}
			out.Multi = sc.Session().RunMany(g, agents, sim.MultiConfig{
				Budget:             c.Budget,
				StopOnGather:       c.StopOnGather,
				StopOnFirstMeeting: c.StopOnFirstMeeting,
			})
		}
		out.Wakeups = sc.Session().Wakeups()
		return out
	})
}

func diffAgainstBackend(t *testing.T, be dist.Backend, rounds int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		p, cases := buildPlan(r)
		want := rawSweep(t, cases)
		got, err := p.Run(be)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		simtest.RequireEqualResults(t, fmt.Sprintf("round %d", round), want, got)
	}
}

func TestDifferentialInProcessBackend(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			be := dist.NewInProcess(workers)
			defer be.Close()
			diffAgainstBackend(t, be, 6, int64(1000+workers))
		})
	}
}

func TestDifferentialLocalSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker subprocesses")
	}
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			be, err := dist.NewLocal(workers, nil) // self-exec this test binary
			if err != nil {
				t.Fatal(err)
			}
			defer be.Close()
			diffAgainstBackend(t, be, 3, int64(2000+workers))
		})
	}
}

func TestDifferentialTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go dist.ListenAndServe(l)
	addr := l.Addr().String()
	be, err := dist.Dial([]string{addr, addr})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	diffAgainstBackend(t, be, 3, 3000)
}

// TestBackendErrors pins the failure surface: unknown programs, corrupt
// graphs and out-of-range seeds must come back as errors naming the
// problem, not as hangs or zero results.
func TestBackendErrors(t *testing.T) {
	be := dist.NewInProcess(2)
	defer be.Close()
	for _, tc := range []struct {
		name string
		sh   dist.ShardDesc
		want string
	}{
		{
			name: "unknown program",
			sh: dist.ShardDesc{
				GraphText: graph.Encode(graph.Cycle(4)),
				Cases: []dist.CaseDesc{{
					Kind:  dist.KindTwoAgent,
					ProgA: dist.ProgDesc{Name: "no-such-program"},
					ProgB: dist.ProgDesc{Name: "sit"},
					U:     0, V: 1, Budget: 10,
				}},
			},
			want: "not registered",
		},
		{
			name: "corrupt graph",
			sh: dist.ShardDesc{
				GraphText: "3\nbogus adjacency\n",
				Cases:     []dist.CaseDesc{{Kind: dist.KindTwoAgent, ProgA: dist.ProgDesc{Name: "sit"}, ProgB: dist.ProgDesc{Name: "sit"}, Budget: 10}},
			},
			want: "decode",
		},
		{
			name: "start out of range",
			sh: dist.ShardDesc{
				GraphText: graph.Encode(graph.Cycle(4)),
				Cases: []dist.CaseDesc{{
					Kind:  dist.KindTwoAgent,
					ProgA: dist.ProgDesc{Name: "sit"},
					ProgB: dist.ProgDesc{Name: "sit"},
					U:     9, V: 1, Budget: 10,
				}},
			},
			want: "outside graph",
		},
		{
			name: "seed outside declared range",
			sh: dist.ShardDesc{
				GraphText: graph.Encode(graph.Cycle(4)),
				SeedLo:    100, SeedHi: 200,
				Cases: []dist.CaseDesc{{
					Kind:  dist.KindTwoAgent,
					ProgA: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{999}},
					ProgB: dist.ProgDesc{Name: "sit"},
					U:     0, V: 1, Budget: 10,
				}},
			},
			want: "outside the shard's declared range",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := tc.sh
			_, err := be.Run([]*dist.ShardDesc{&sh})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	// The backend must survive failed sweeps: a good shard afterwards
	// still runs (worker connections are not poisoned by error frames).
	good := &dist.ShardDesc{
		GraphText: graph.Encode(graph.Cycle(4)),
		Cases: []dist.CaseDesc{{
			Kind:  dist.KindTwoAgent,
			ProgA: dist.ProgDesc{Name: "moveevery"},
			ProgB: dist.ProgDesc{Name: "sit"},
			U:     0, V: 2, Delay: 0, Budget: 1000,
		}},
	}
	res, err := be.Run([]*dist.ShardDesc{good})
	if err != nil {
		t.Fatalf("backend poisoned by earlier error: %v", err)
	}
	if res[0].Cases[0].Two.Outcome != sim.Met {
		t.Fatalf("unexpected outcome %v", res[0].Cases[0].Two.Outcome)
	}
}
