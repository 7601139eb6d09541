package dist_test

// The fault-injection differential suite: the byte-identical-aggregation
// invariant must survive dropped, delayed and garbled frames, severed
// connections, crashing workers and hung workers — every recovery path
// (requeue, deadline reaping, respawn, mid-sweep joins) is pinned by
// full-equality comparison against the plain in-process sim.Sweep.
// Fault schedules are seeded and deterministic, so a failing run
// replays.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dist"
	"repro/internal/simtest"
)

// workerLink is one protocol worker running over an in-memory pipe,
// with optional fault wrappers on either side of the link.
type workerLink struct {
	coord io.ReadWriteCloser
	done  chan error
}

// startServeWorker runs a real protocol worker over net.Pipe. workerPlan
// faults the worker→coordinator direction, coordPlan the
// coordinator→worker direction; nil means a clean side.
func startServeWorker(workerPlan, coordPlan *FaultPlan, opts ...dist.ServeOption) workerLink {
	cp, wp := net.Pipe()
	var wt io.ReadWriteCloser = wp
	if workerPlan != nil {
		wt = NewFaultConn(wp, *workerPlan)
	}
	done := make(chan error, 1)
	go func() {
		err := dist.Serve(wt, wt, opts...)
		wt.Close()
		done <- err
	}()
	var ct io.ReadWriteCloser = cp
	if coordPlan != nil {
		ct = NewFaultConn(cp, *coordPlan)
	}
	return workerLink{coord: ct, done: done}
}

// hungWorker is a fake worker that completes the handshake and then
// swallows every frame without ever answering — the shape of a wedged
// process the deadline watchdog exists for.
type hungWorker struct {
	coord   io.ReadWriteCloser
	holding <-chan struct{} // closed once it has read its first frame whole
	done    <-chan struct{} // closed once its link is closed; shards is final then
	shards  int             // shard frames read
}

// startHungWorker runs a hungWorker over net.Pipe. The coordinator sends
// a worker nothing before its first shard, so once holding closes the
// hung worker holds a shard that only the watchdog can take back.
func startHungWorker() *hungWorker {
	cp, wp := net.Pipe()
	holding, done := make(chan struct{}), make(chan struct{})
	hw := &hungWorker{coord: cp, holding: holding, done: done}
	go func() {
		defer close(done)
		defer wp.Close()
		// Hand-rolled hello: 2-byte frame {hello, version}.
		if _, err := wp.Write([]byte{2, 1, byte(dist.ProtoVersion)}); err != nil {
			return
		}
		br := bufio.NewReader(wp)
		for {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				return
			}
			if hw.shards++; hw.shards == 1 {
				close(holding)
			}
		}
	}()
	return hw
}

// plannerWithShards builds a randomized plan with at least minShards
// shards, deterministically from the seed (scanning forward as needed).
func plannerWithShards(seed int64, minShards int) (*dist.Planner, []planCase) {
	for s := seed; ; s++ {
		r := rand.New(rand.NewSource(s))
		p, cases := buildPlan(r)
		if len(p.Shards()) >= minShards {
			return p, cases
		}
	}
}

// assertEqualResults delegates to the shared simtest comparator; the
// thin wrapper keeps the suite's call sites and (got, want) order.
func assertEqualResults(t *testing.T, label string, got, want []dist.CaseResult) {
	t.Helper()
	simtest.RequireEqualResults(t, label, want, got)
}

// faultTuning is the suite's recovery tuning: a generous attempt budget
// so shards bounced off two faulty connections still land on the clean
// one, and a deadline (from dispatch) over 10x the worst healthy shard
// of TestDifferentialUnderFaults' plans — 73 ms under -race at
// GOMAXPROCS=1 on a 2-CPU x86-64 host, three workers sharing the CPU —
// so the watchdog reaps only a link that lost a frame.
func faultTuning() dist.Tuning {
	return dist.Tuning{
		MaxAttempts:  6,
		BaseDeadline: 750 * time.Millisecond,
		PerCase:      2 * time.Millisecond,
	}
}

// TestDifferentialUnderFaults is the randomized heart of the suite: one
// clean worker plus two faulty links (worker→coord faults on one,
// coord→worker faults on the other, alternating sever schedules), and
// full-equality aggregation asserted across seeds. Whatever the fault
// schedule does — drop a shard frame (watchdog), garble a result
// (checksum sever + requeue), delay everything, cut a link mid-stream —
// the sweep must complete with at least one survivor and the results
// must be byte-identical to the in-process engine.
func TestDifferentialUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p, cases := plannerWithShards(100*seed, 2)
			want := rawSweep(t, cases)

			clean := startServeWorker(nil, nil)
			workerFaults := &FaultPlan{
				Seed:       uint64(seed)*7 + 1,
				DropProb:   0.08,
				GarbleProb: 0.08,
				DelayProb:  0.3,
				Delay:      2 * time.Millisecond,
			}
			if seed%2 == 0 {
				workerFaults.SeverAfterWrites = 9
			}
			faultyUp := startServeWorker(workerFaults, nil)
			coordFaults := &FaultPlan{
				Seed:       uint64(seed)*13 + 5,
				DropProb:   0.1,
				GarbleProb: 0.1,
				DelayProb:  0.2,
				Delay:      time.Millisecond,
			}
			faultyDown := startServeWorker(nil, coordFaults)

			be := dist.NewFromStreams(
				[]io.ReadWriteCloser{clean.coord, faultyUp.coord, faultyDown.coord},
				dist.WithTuning(faultTuning()),
			)
			defer be.Close()
			got, err := p.Run(be)
			if err != nil {
				t.Fatalf("sweep failed under faults (clean worker survived): %v", err)
			}
			assertEqualResults(t, "faulted sweep", got, want)
			if stats, ok := dist.LastRunStats(be); ok {
				t.Logf("stats: %+v", stats)
				if stats.MaxAttempts > faultTuning().MaxAttempts {
					t.Fatalf("shard dispatched %d times, budget %d", stats.MaxAttempts, faultTuning().MaxAttempts)
				}
			}
		})
	}
}

// startGatedServeWorker is startServeWorker on a clean link whose worker
// stays silent — no hello, so the coordinator deals it nothing — until
// gate closes.
func startGatedServeWorker(gate <-chan struct{}, opts ...dist.ServeOption) workerLink {
	cp, wp := net.Pipe()
	done := make(chan error, 1)
	go func() {
		<-gate
		err := dist.Serve(wp, wp, opts...)
		wp.Close()
		done <- err
	}()
	return workerLink{coord: cp, done: done}
}

// TestKillScheduleMatrix kills worker i after it has executed j shards,
// for every (i, j) pair — the seeded kill-schedule matrix. The crash
// fires mid-shard (result frame withheld, link cut), the survivor
// absorbs the requeued work, aggregation stays byte-identical, and the
// attempt budget is never exceeded. The
// survivor's hello is held until the crash has fired, so the crasher is
// dealt every shard until then and the crash happens in every cell; the
// watchdog is off so the waiting survivor is never reaped for silence.
func TestKillScheduleMatrix(t *testing.T) {
	p, cases := plannerWithShards(9000, 4)
	want := rawSweep(t, cases)
	tun := faultTuning()
	tun.BaseDeadline = dist.NoDeadline
	for i := 0; i < 2; i++ {
		for j := 1; j <= 3; j++ {
			t.Run(fmt.Sprintf("kill-worker%d-after%d", i, j), func(t *testing.T) {
				crasher := startServeWorker(nil, nil, dist.WithCrashAfterShards(j))
				crashed := make(chan struct{})
				var crashErr error
				go func() {
					crashErr = <-crasher.done
					close(crashed)
				}()
				survivor := startGatedServeWorker(crashed)
				streams := make([]io.ReadWriteCloser, 2)
				streams[i], streams[1-i] = crasher.coord, survivor.coord
				be := dist.NewFromStreams(streams, dist.WithTuning(tun))
				defer be.Close()
				got, err := p.Run(be)
				if err != nil {
					t.Fatalf("sweep failed with one worker killed: %v", err)
				}
				assertEqualResults(t, "post-kill sweep", got, want)
				<-crashed // already closed: the survivor's hello waited on it
				if !errors.Is(crashErr, dist.ErrCrashInjected) {
					t.Fatalf("killed worker's Serve returned %v, want ErrCrashInjected", crashErr)
				}
				stats, ok := dist.LastRunStats(be)
				if !ok {
					t.Fatal("no run stats from a connection backend")
				}
				if stats.MaxAttempts > tun.MaxAttempts {
					t.Fatalf("shard dispatched %d times, budget %d", stats.MaxAttempts, tun.MaxAttempts)
				}
				if stats.DeadConns != 1 || stats.Requeues < 1 {
					t.Fatalf("want exactly the crasher dead and its shard requeued: %+v", stats)
				}
			})
		}
	}
}

// TestHungWorkerReaped pins the liveness half: a worker that handshakes
// and then swallows shards forever is severed by the progress watchdog,
// its shards requeue onto the healthy worker, and the sweep completes
// byte-identically. The healthy worker's hello is held until the hung
// worker holds a shard, so the sweep cannot finish without the reap —
// otherwise a fast healthy worker could drain every shard first. The
// hung worker must be dealt exactly one shard: a connection holds one
// shard at a time.
func TestHungWorkerReaped(t *testing.T) {
	p, cases := plannerWithShards(7000, 2)
	want := rawSweep(t, cases)
	hw := startHungWorker()
	healthy := startGatedServeWorker(hw.holding)
	// Over 10x this plan's worst healthy shard under -race (27 ms).
	tun := faultTuning()
	tun.BaseDeadline = 300 * time.Millisecond
	be := dist.NewFromStreams(
		[]io.ReadWriteCloser{hw.coord, healthy.coord},
		dist.WithTuning(tun),
	)
	defer be.Close()
	start := time.Now()
	got, err := p.Run(be)
	if err != nil {
		t.Fatalf("sweep failed with a hung worker: %v", err)
	}
	assertEqualResults(t, "post-reap sweep", got, want)
	stats, _ := dist.LastRunStats(be)
	if stats.DeadConns == 0 {
		t.Fatalf("hung worker was never reaped: %+v (elapsed %v)", stats, time.Since(start))
	}
	<-hw.done
	if hw.shards != 1 {
		t.Fatalf("hung worker read %d shard frames, want 1", hw.shards)
	}
}

// TestLateJoinAddConn pins elastic membership: a sweep started on a
// single wedged worker is rescued by a healthy worker joining mid-run
// through AddConn — once the wedged worker holds a shard, so the join
// is mid-run by construction.
func TestLateJoinAddConn(t *testing.T) {
	p, cases := plannerWithShards(5000, 2)
	want := rawSweep(t, cases)
	// Over 10x this plan's worst healthy shard under -race (10 ms).
	tun := faultTuning()
	tun.BaseDeadline = 200 * time.Millisecond
	hw := startHungWorker()
	be := dist.NewFromStreams([]io.ReadWriteCloser{hw.coord}, dist.WithTuning(tun))
	defer be.Close()
	adder, ok := be.(dist.ConnAdder)
	if !ok {
		t.Fatal("connection backend does not implement ConnAdder")
	}
	runDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-hw.holding:
		case <-runDone:
			return // the run ended without dealing the wedged worker a shard
		}
		healthy := startServeWorker(nil, nil)
		adder.AddConn(healthy.coord, healthy.coord)
	}()
	got, err := p.Run(be)
	close(runDone)
	wg.Wait()
	if err != nil {
		t.Fatalf("sweep failed despite a healthy late join: %v", err)
	}
	assertEqualResults(t, "late-join sweep", got, want)
	stats, _ := dist.LastRunStats(be)
	if stats.Joined != 1 {
		t.Fatalf("expected exactly one mid-run join, got %+v", stats)
	}
	if stats.DeadConns != 1 {
		t.Fatalf("expected the wedged worker reaped, got %+v", stats)
	}
}

// TestNoSurvivorsFails pins the failure floor: when every worker dies
// and nothing replaces them, the sweep reports the fleet's death rather
// than hanging or fabricating results.
func TestNoSurvivorsFails(t *testing.T) {
	p, _ := plannerWithShards(3000, 2)
	streams := make([]io.ReadWriteCloser, 2)
	for w := range streams {
		// Crash while executing the very first shard: no worker ever
		// completes anything.
		streams[w] = startServeWorker(nil, nil, dist.WithCrashAfterShards(1)).coord
	}
	be := dist.NewFromStreams(streams, dist.WithTuning(faultTuning()))
	defer be.Close()
	_, err := p.Run(be)
	if err == nil {
		t.Fatal("sweep succeeded with every worker dead")
	}
	if !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("want a no-live-workers error, got: %v", err)
	}
}

// TestCloseDuringRun (the -race half of the Close contract): closing the
// backend while a Run is in flight must abort the run, await every
// dispatch goroutine, and leave the backend returning a closed error —
// no leaked readers touching closed connections. Close waits until a hung
// worker holds a shard, and the real worker's hello is held until then,
// so with the watchdog off the sweep cannot finish before Close: Run must
// fail. Closing the real worker's link is its only stop signal.
func TestCloseDuringRun(t *testing.T) {
	p, _ := plannerWithShards(1000, 2)
	hw := startHungWorker()
	worker := startGatedServeWorker(hw.holding)
	be := dist.NewFromStreams([]io.ReadWriteCloser{hw.coord, worker.coord},
		dist.WithTuning(dist.Tuning{BaseDeadline: dist.NoDeadline}))
	runDone := make(chan error, 1)
	go func() {
		_, err := p.Run(be)
		runDone <- err
	}()
	<-hw.holding
	if err := be.Close(); err != nil {
		t.Fatalf("Close during Run: %v", err)
	}
	if err := <-runDone; err == nil {
		t.Fatal("Run succeeded though a hung worker held a shard until Close")
	}
	<-worker.done
	if _, err := p.Run(be); err == nil {
		t.Fatal("Run succeeded on a closed backend")
	}
}

// TestRespawnCompletesSweep pins the elastic NewLocal fleet end-to-end
// with real forked processes: every worker process crashes while
// executing its second shard (CrashEnv), the respawn hook keeps
// replacing them, and the sweep still completes byte-identically.
func TestRespawnCompletesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("forks many worker processes")
	}
	t.Setenv(dist.CrashEnv, "2")
	p, cases := plannerWithShards(400, 3)
	want := rawSweep(t, cases)
	tun := dist.Tuning{MaxAttempts: 8, BaseDeadline: 10 * time.Second}
	be, err := dist.NewLocal(2, nil, dist.WithTuning(tun), dist.WithRespawn(24))
	if err != nil {
		t.Fatal(err)
	}
	// Close reports the injected crash exits; that is the point.
	defer be.Close()
	got, err := p.Run(be)
	if err != nil {
		t.Fatalf("sweep failed despite respawns: %v", err)
	}
	assertEqualResults(t, "respawned sweep", got, want)
	stats, _ := dist.LastRunStats(be)
	if stats.Joined == 0 {
		t.Fatalf("no respawned worker ever joined: %+v", stats)
	}
}

// TestPoisonShardExhaustsAttempts pins the attempt bound with real
// processes: when every worker (original and respawned alike) dies on
// its first shard, the shard's dispatch budget runs out and the sweep
// fails with a per-shard attempts error instead of respawning forever.
// Each dispatch kills one worker, so the respawn budget covers every
// shard's every attempt: the fleet outlives the attempt budgets.
func TestPoisonShardExhaustsAttempts(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	t.Setenv(dist.CrashEnv, "1")
	p, _ := plannerWithShards(600, 1)
	tun := dist.Tuning{MaxAttempts: 2, BaseDeadline: 10 * time.Second}
	be, err := dist.NewLocal(1, nil, dist.WithTuning(tun), dist.WithRespawn(len(p.Shards())*tun.MaxAttempts))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	_, err = p.Run(be)
	if err == nil {
		t.Fatal("sweep succeeded though every dispatch crashed")
	}
	if !strings.Contains(err.Error(), "dispatch attempts") {
		t.Fatalf("want an attempts-exhausted error, got: %v", err)
	}
}
