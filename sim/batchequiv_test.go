package sim_test

// Differential equivalence suite for the k-agent batch engine: every
// lane of RunBatch must return exactly what Session.RunMany returns for
// its case — full MultiResult equality (Meetings order and slice
// nil-ness included) AND per-lane scheduler wakeup counts equal to the
// per-case engine's Session.Wakeups — across hundreds of randomized
// cases mixing graph families, program shapes, appearance rounds,
// budgets and lane counts, plus the shapes the lane model is most
// likely to get wrong: bucketed-scan lanes beside small ones, W=1
// degenerate batches, and concurrent batches sharing one Session.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/simtest"
	"repro/sim"
)

func TestBatchEquivalenceRunBatchRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(0xBA7C5))
	sess := sim.NewSession()
	defer sess.Close()
	ref := sim.NewSession()
	defer ref.Close()
	b := sim.NewBatch()
	total := 0
	for total < 300 {
		g := randGraph(r)
		w := 1 + r.Intn(10)
		cases := make([]sim.MultiCase, w)
		for i := range cases {
			k := r.Intn(5) // 0 included: the empty-lane contract
			agents := make([]sim.MultiAgent, k)
			for j := range agents {
				prog, _ := randProgram(r)
				appear := uint64(0)
				if r.Intn(2) == 1 {
					appear = uint64(r.Intn(40))
				}
				agents[j] = sim.MultiAgent{Program: prog, Start: r.Intn(g.N()), Appear: appear}
			}
			cases[i] = sim.MultiCase{Agents: agents, Cfg: sim.MultiConfig{
				Budget:             uint64(1 + r.Intn(3000)),
				StopOnGather:       r.Intn(2) == 1,
				StopOnFirstMeeting: r.Intn(3) == 0,
			}}
		}
		got := sess.RunBatch(g, cases, b)
		wk := b.Wakeups()
		for i := range cases {
			want := ref.RunMany(g, cases[i].Agents, cases[i].Cfg)
			simtest.RequireEqualResult(t, fmt.Sprintf("lane %d/%d on %s (k=%d)", i, w, g, len(cases[i].Agents)), want, got[i])
			if err := sim.GatherCheck(got[i]); err != nil {
				t.Fatalf("lane %d/%d: %v", i, w, err)
			}
			if len(cases[i].Agents) == 0 {
				// RunMany's k == 0 early return doesn't touch the session,
				// so its Wakeups are stale; the lane's count must be zero.
				if wk[i] != 0 {
					t.Fatalf("lane %d/%d: empty lane reported %d wakeups", i, w, wk[i])
				}
				continue
			}
			if wk[i] != ref.Wakeups() {
				t.Fatalf("lane %d/%d on %s: wakeups disagree: batch %d, per-case %d",
					i, w, g, wk[i], ref.Wakeups())
			}
		}
		total += w
	}
}

// TestBatchEquivalenceRunBatchLargeK mixes bucketed-scan lanes
// (k >= 32) with small lanes in one batch: the shared bhead/bnext
// scratch must be correctly sized for the largest lane and restored to
// all -1 between lane steps.
func TestBatchEquivalenceRunBatchLargeK(t *testing.T) {
	r := rand.New(rand.NewSource(0xB17B))
	sess := sim.NewSession()
	defer sess.Close()
	ref := sim.NewSession()
	defer ref.Close()
	b := sim.NewBatch()
	for ci := 0; ci < 6; ci++ {
		g := randGraph(r)
		cases := make([]sim.MultiCase, 4)
		for i := range cases {
			k := 2 + r.Intn(3)
			if i%2 == 0 {
				k = 32 + r.Intn(9) // bucketed path
			}
			agents := make([]sim.MultiAgent, k)
			for j := range agents {
				prog, _ := randProgram(r)
				agents[j] = sim.MultiAgent{Program: prog, Start: r.Intn(g.N()), Appear: uint64(r.Intn(20))}
			}
			cases[i] = sim.MultiCase{Agents: agents, Cfg: sim.MultiConfig{Budget: uint64(1 + r.Intn(800))}}
		}
		got := sess.RunBatch(g, cases, b)
		for i := range cases {
			want := ref.RunMany(g, cases[i].Agents, cases[i].Cfg)
			simtest.RequireEqualResult(t, fmt.Sprintf("case %d lane %d (k=%d) on %s", ci, i, len(cases[i].Agents), g), want, got[i])
		}
	}
}

// TestBatchSingleLane: the W=1 degenerate batch is just a slow spelling
// of RunMany.
func TestBatchSingleLane(t *testing.T) {
	r := rand.New(rand.NewSource(0x1A2E))
	sess := sim.NewSession()
	defer sess.Close()
	ref := sim.NewSession()
	defer ref.Close()
	b := sim.NewBatch()
	for ci := 0; ci < 20; ci++ {
		g := randGraph(r)
		prog, _ := randProgram(r)
		mc := []sim.MultiCase{{Agents: []sim.MultiAgent{{Program: prog, Start: 0}, {Program: prog, Start: g.N() - 1}},
			Cfg: sim.MultiConfig{Budget: 500}}}
		got := sess.RunBatch(g, mc, b)
		want := ref.RunMany(g, mc[0].Agents, mc[0].Cfg)
		simtest.RequireEqualResult(t, fmt.Sprintf("case %d on %s: W=1", ci, g), want, got[0])
	}
}

// TestBatchConcurrentOnOneSession exercises the documented concurrency
// contract under -race: multiple goroutines each drive their own Batch
// arena against ONE shared Session (the runner pool is the only shared
// state), and every lane must still equal its per-case reference.
func TestBatchConcurrentOnOneSession(t *testing.T) {
	sess := sim.NewSession()
	defer sess.Close()
	var wg sync.WaitGroup
	for wk := 0; wk < 4; wk++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ref := sim.NewSession()
			defer ref.Close()
			b := sim.NewBatch()
			for iter := 0; iter < 8; iter++ {
				g := randGraph(r)
				cases := make([]sim.MultiCase, 1+r.Intn(4))
				for i := range cases {
					agents := make([]sim.MultiAgent, 2+r.Intn(3))
					for j := range agents {
						prog, _ := randProgram(r)
						agents[j] = sim.MultiAgent{Program: prog, Start: r.Intn(g.N()), Appear: uint64(r.Intn(10))}
					}
					cases[i] = sim.MultiCase{Agents: agents, Cfg: sim.MultiConfig{Budget: uint64(1 + r.Intn(1000))}}
				}
				got := sess.RunBatch(g, cases, b)
				for i := range cases {
					want := ref.RunMany(g, cases[i].Agents, cases[i].Cfg)
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("seed %d iter %d lane %d: %+v, want %+v", seed, iter, i, got[i], want)
						return
					}
				}
			}
		}(int64(wk))
	}
	wg.Wait()
}
