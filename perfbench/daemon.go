package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/dist"
	"repro/graph"
	"repro/rvd"
	"repro/sim"
)

const (
	// daemonJobsPerSegment is how many jobs one daemon lifetime serves.
	// A run is a sequence of such lifetimes, each a fresh daemon in a
	// fresh state directory; bounding it bounds memory, since the daemon
	// keeps every finished job (about 0.45 MB each).
	daemonJobsPerSegment = 160
	// daemonJobsPerSec is the nominal job rate that sets a run's length.
	daemonJobsPerSec = 200

	daemonRuns   = 32      // lazyrandom seed pairs per graph, as in E12
	daemonBudget = 1 << 22 // E12's budget
)

// daemonGraphs is E12's grid: six graphs with their start pairs and delays.
var daemonGraphs = []struct {
	g     *graph.Graph
	u, v  int
	delay uint64
}{
	{graph.Cycle(4), 0, 2, 0},
	{graph.Cycle(8), 0, 4, 0},
	{graph.Cycle(12), 0, 6, 0},
	{graph.OrientedTorus(3, 3), 0, 4, 0},
	{graph.OrientedTorus(4, 4), 0, 10, 0},
	{graph.Cycle(8), 0, 4, 5},
}

// daemonWorkload: op = one rvd job from a single closed-loop client. The
// seeded sequence has one cold job per three warm jobs: a cold job is
// E12's grid on a seed range no earlier job used; a warm job resubmits a
// seeded pick of an earlier cold job of the same daemon lifetime.
type daemonWorkload struct {
	cfg config
	rng *rand.Rand

	// The current daemon lifetime.
	dir    string
	fleet  dist.Backend
	d      *rvd.Daemon
	srv    *http.Server
	served chan struct{}
	tport  *http.Transport
	hc     *http.Client
	client *rvd.Client
	base   string
	cold   []coldJob // this lifetime's cold jobs, for warm picks
}

// coldJob is a job a warm job may repeat.
type coldJob struct {
	shards []*dist.ShardDesc
	digest [sha256.Size]byte // of the results' encodings
}

func newDaemonWorkload(cfg config) *daemonWorkload {
	return &daemonWorkload{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.seed, 0x6461656d6f6e))}
}

// setup starts one daemon lifetime: rvd.Open in a new state directory
// on the host disk (so fsyncs are real), the default in-process fleet,
// the HTTP handler on a loopback listener, and one rvd.Client.
func (w *daemonWorkload) setup(r *runner) error {
	dir, err := os.MkdirTemp(w.cfg.out, "rvd-state-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.fleet = dist.NewInProcess(0)
	be := w.fleet
	if r.tr != nil {
		tb := newTimedBackend(w.fleet, r.tr, trackFleet)
		r.tb = tb
		be = tb
	}
	if w.d, err = rvd.Open(rvd.Config{Dir: dir, Backend: be}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.d.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.tport = &http.Transport{}
	w.hc = &http.Client{Transport: w.tport}
	w.client = &rvd.Client{BaseURL: w.base, HTTPClient: w.hc}
	return nil
}

// teardown closes the listener, daemon and fleet and removes the state
// directory, so the next lifetime starts from the same state.
func (w *daemonWorkload) teardown() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.srv.Shutdown(ctx); err != nil {
			_ = w.srv.Close()
		}
		cancel()
		<-w.served
	}
	if w.tport != nil {
		w.tport.CloseIdleConnections()
	}
	if w.d != nil {
		_ = w.d.Close()
	}
	if w.fleet != nil {
		_ = w.fleet.Close()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
	*w = daemonWorkload{cfg: w.cfg, rng: w.rng}
}

func (w *daemonWorkload) run(r *runner, ops int) error {
	// The run's cold jobs cover a fixed set of seed ranges in a seeded
	// order, so a run's total engine work does not depend on the seed.
	ranges := w.rng.Perm(ops / 4)
	next := 0
	for seg := 0; seg < ops/daemonJobsPerSegment; seg++ {
		if seg > 0 {
			// Later lifetimes start in a warm process; setup_s counts
			// only cold-process start-ups, so this one is not timed. The
			// collection keeps peak RSS to one lifetime's memory.
			w.teardown()
			runtime.GC()
			if err := w.setup(r); err != nil {
				return fmt.Errorf("daemon set-up: %w", err)
			}
		}
		for blk := 0; blk < daemonJobsPerSegment/4; blk++ {
			coldAt := 0
			if blk > 0 {
				coldAt = w.rng.IntN(4)
			}
			// Traced runs trace every other block of four jobs, so traced
			// and untraced jobs have the same cold:warm mix.
			traced := blk%2 == 0
			for j := 0; j < 4; j++ {
				if j == coldAt {
					w.coldJob(r, traced, ranges[next])
					next++
				} else {
					w.warmJob(r, traced)
				}
			}
		}
	}
	if r.tr != nil {
		r.tr.storeEntries = float64(w.d.Stats().StoreEntries)
	}
	return nil
}

// coldShards builds a cold job: E12's six graphs × 32 lazyrandom seed
// pairs on seed range k, budget 2^22, with declared seed ranges and
// batch-eligible shards.
func coldShards(k int) []*dist.ShardDesc {
	lo := uint64(1<<20 + 2*daemonRuns*k)
	plan := &dist.Planner{}
	for gi, c := range daemonGraphs {
		for i := 0; i < daemonRuns; i++ {
			plan.Add(gi, c.g, dist.CaseDesc{
				Kind:   dist.KindTwoAgent,
				ProgA:  dist.ProgDesc{Name: "lazyrandom", Args: []uint64{lo + uint64(2*i)}},
				ProgB:  dist.ProgDesc{Name: "lazyrandom", Args: []uint64{lo + uint64(2*i+1)}},
				U:      c.u,
				V:      c.v,
				Delay:  c.delay,
				Budget: daemonBudget,
			})
		}
		plan.SetSeedRange(gi, lo, lo+2*daemonRuns)
		plan.SetBatch(gi)
	}
	return plan.Shards()
}

func (w *daemonWorkload) coldJob(r *runner, traced bool, k int) {
	job := coldJob{shards: coldShards(k)}
	var res []*dist.ShardResult
	before := w.d.Stats()
	r.op("cold", traced, func(tr *tracer) (err error) {
		res, err = w.submit(tr, "cold", job.shards)
		return err
	}, func() error {
		if err := w.servedAs(before, len(job.shards), 0); err != nil {
			return err
		}
		for _, sr := range res {
			for _, c := range sr.Cases {
				if c.Two.Outcome != sim.Met {
					return errors.New("a lazy random walk was censored at the budget")
				}
			}
		}
		job.digest = digestResults(res)
		w.cold = append(w.cold, job)
		return nil
	})
}

func (w *daemonWorkload) warmJob(r *runner, traced bool) {
	if len(w.cold) == 0 {
		// Only possible after a failed cold job; count the op as failed.
		r.op("warm", traced, func(*tracer) error { return errors.New("no earlier cold job to repeat") }, nil)
		return
	}
	job := w.cold[w.rng.IntN(len(w.cold))]
	var res []*dist.ShardResult
	before := w.d.Stats()
	r.op("warm", traced, func(tr *tracer) (err error) {
		res, err = w.submit(tr, "warm", job.shards)
		return err
	}, func() error {
		if err := w.servedAs(before, 0, len(job.shards)); err != nil {
			return err
		}
		if digestResults(res) != job.digest {
			return errors.New("warm job's results differ from its cold run")
		}
		return nil
	})
}

// servedAs checks how the daemon served the job just finished: a cold job
// executes every shard, a warm one answers every shard from the store.
func (w *daemonWorkload) servedAs(before rvd.Stats, executed, hits int) error {
	after := w.d.Stats()
	if e, h := after.Executed-before.Executed, after.CacheHits-before.CacheHits; e != executed || h != hits {
		return fmt.Errorf("job executed %d shards with %d cache hits, want %d and %d", e, h, executed, hits)
	}
	return nil
}

// submit runs one job: through rvd.Client when untraced, through the
// phase-split client when traced.
func (w *daemonWorkload) submit(tr *tracer, kind string, shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	if tr == nil {
		return w.client.Run(shards)
	}
	return w.phaseSplit(tr, kind, shards)
}

func digestResults(res []*dist.ShardResult) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for _, sr := range res {
		buf = sr.AppendEncode(buf[:0])
		h.Write(buf)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// phaseSplit makes rvd.Client's requests itself, timing each phase:
// submit (POST /v1/sweeps: HTTP and the journal), complete (the events
// stream up to its terminal line: scheduler, engine and store writes) and
// fetch (GET /v1/results/{key} per shard: store reads).
func (w *daemonWorkload) phaseSplit(tr *tracer, kind string, shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	phase := func(name string, start int64) {
		d := float64(tr.span(trackClient, "rvd."+name, "rvd", start, kind)) / 1e6
		tr.add("rvd."+name+"_ms", d)
		tr.sample("rvd."+kind+"."+name+"_ms", d)
	}

	start := tr.now()
	req := struct {
		Shards []string `json:"shards"`
	}{make([]string, len(shards))}
	for i, sh := range shards {
		req.Shards[i] = base64.StdEncoding.EncodeToString(sh.Encode())
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Post(w.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		return nil, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	phase("submit", start)

	start = tr.now()
	resp, err = w.hc.Get(fmt.Sprintf("%s/v1/sweeps/%d/events", w.base, sub.ID))
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	keys := make([]string, len(shards))
	state, errMsg := "", ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			Shard *int   `json:"shard"`
			Key   string `json:"key"`
			State string `json:"state"`
			Err   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("events: %w", err)
		}
		if line.State != "" {
			state, errMsg = line.State, line.Err
			break
		}
		if line.Shard != nil && *line.Shard >= 0 && *line.Shard < len(keys) {
			keys[*line.Shard] = line.Key
		}
	}
	resp.Body.Close()
	if state != "done" {
		return nil, fmt.Errorf("job %d ended %q: %s", sub.ID, state, errMsg)
	}
	phase("complete", start)

	start = tr.now()
	results := make([]*dist.ShardResult, len(shards))
	for i, key := range keys {
		resp, err := w.hc.Get(w.base + "/v1/results/" + key)
		if err != nil {
			return nil, fmt.Errorf("fetch: %w", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fetch shard %d: %s (%v)", i, resp.Status, err)
		}
		results[i] = new(dist.ShardResult)
		if err := results[i].Decode(raw); err != nil {
			return nil, fmt.Errorf("fetch shard %d: %w", i, err)
		}
	}
	phase("fetch", start)
	return results, nil
}
