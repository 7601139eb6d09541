package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Backend executes shard descriptors and returns their aggregates. Run is
// position-stable: results[i] always answers shards[i], whatever worker
// executed it and in whatever order shards finished — the multi-process
// analogue of sim.Sweep's disjoint-region aggregation. A Backend is safe
// for sequential reuse across many Run calls (worker processes and
// connections stay warm in between); Close releases the workers.
//
// Failure is a normal event: a connection that errors, hangs past its
// deadline, or dies mid-stream has its in-flight shard requeued onto
// surviving (or late-joining) connections, and a sweep
// only fails outright when no live workers remain or a shard exhausts
// its bounded attempt budget. Deterministic per-shard errors (unknown
// program, corrupt graph) are never retried — they would fail
// identically anywhere — and surface as the Run error.
type Backend interface {
	Run(shards []*ShardDesc) ([]*ShardResult, error)
	Close() error
}

// Tuning is the failure-handling knob block of a connection backend.
// Zero fields take the defaults; the values only affect scheduling and
// liveness, never results.
type Tuning struct {
	// MaxAttempts bounds how many times one shard may be dispatched. A
	// poison shard that kills every worker it lands on surfaces as a
	// per-shard error after MaxAttempts dispatches instead of looping
	// forever. Default 3.
	MaxAttempts int

	// BaseDeadline + PerCase*cases is a dispatched shard's deadline: if
	// the connection holding it has not answered that long after the
	// dispatch, the coordinator severs it and requeues the shard. A
	// connection that has not said hello is on the same clock from its
	// start. Defaults 10s + 50ms/case. NoDeadline disables the watchdog
	// entirely — the run then only notices a dead worker when its
	// transport errors out.
	BaseDeadline time.Duration
	PerCase      time.Duration
}

// NoDeadline as Tuning.BaseDeadline disables the liveness watchdog. The
// in-process backend always runs with it: a worker goroutine cannot
// vanish without closing its pipe (which the connection's read notices
// immediately), so the watchdog could only cut off a case that runs past
// the deadline and requeue the same case.
const NoDeadline time.Duration = -1

func (t Tuning) withDefaults() Tuning {
	if t.MaxAttempts <= 0 {
		t.MaxAttempts = 3
	}
	if t.BaseDeadline == 0 {
		t.BaseDeadline = 10 * time.Second
	}
	if t.PerCase <= 0 {
		t.PerCase = 50 * time.Millisecond
	}
	return t
}

// watchdogOff reports whether the liveness watchdog is disabled.
func (t Tuning) watchdogOff() bool { return t.BaseDeadline < 0 }

// RunStats summarizes the failure handling of the most recent Run — how
// elastic the sweep actually had to be.
type RunStats struct {
	Requeues    int // shard re-deals from zero after a connection was lost
	DeadConns   int // connections lost during the run
	Joined      int // connections that joined mid-run
	MaxAttempts int // highest dispatch count of any shard
	Chunks      int // result frames aggregated
}

// Option configures a connection backend at construction.
type Option func(*connBackend)

// WithTuning replaces the backend's failure-handling tuning.
func WithTuning(t Tuning) Option {
	return func(b *connBackend) { b.tun = t.withDefaults() }
}

// LastRunStats reports the failure-handling statistics of be's most
// recent Run, when be is a connection backend (every backend this
// package constructs is).
func LastRunStats(be Backend) (RunStats, bool) {
	b, ok := be.(*connBackend)
	if !ok {
		return RunStats{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats, true
}

// wconn is one coordinator-held worker connection.
type wconn struct {
	r      *bufio.Reader
	w      *bufio.Writer
	c      io.Closer
	hello  bool       // hello frame consumed and version-checked
	broken bool       // connection failed; skip in future Runs (run.mu of the failing run, then only read)
	gc     graphCache // memoized graphs + expected view signatures
}

// handshake consumes the worker's hello frame once per connection.
func (c *wconn) handshake() error {
	if c.hello {
		return nil
	}
	payload, err := readFrame(c.r, nil)
	if err != nil {
		return fmt.Errorf("dist: waiting for worker hello: %w", err)
	}
	if len(payload) < 2 || payload[0] != frameHello {
		return fmt.Errorf("dist: bad hello frame from worker")
	}
	if payload[1] != ProtoVersion {
		return fmt.Errorf("dist: worker speaks protocol v%d, coordinator v%d", payload[1], ProtoVersion)
	}
	if len(payload) != 2 {
		return fmt.Errorf("dist: bad hello frame from worker (%d trailing bytes)", len(payload)-2)
	}
	c.hello = true
	return nil
}

// sendShard writes one shard frame.
func (c *wconn) sendShard(id int, sh *ShardDesc, scratch []byte) ([]byte, error) {
	scratch = append(scratch[:0], frameShard)
	scratch = binary.AppendUvarint(scratch, uint64(id))
	scratch = sh.AppendEncode(scratch)
	return scratch, WriteFrameSum(c.w, scratch)
}

// connState is one connection's per-run view. Its connLoop goroutine
// writes it under run.mu, where the watchdog reads it (and sets
// deadReason), and reads the in-flight slot without the lock.
type connState struct {
	c          *wconn
	shard      int       // the shard in flight on it, or -1
	sent       int64     // that dispatch's timeline stamp (the shard span's start)
	since      time.Time // the watchdog clock's start: the dispatch, or before hello the conn's start
	dead       bool
	helloed    bool       // handshake completed; pre-hello conns are on the watchdog clock too
	deadReason error      // set before severing (watchdog) to annotate the read error
	idx        int        // position in run.conns: the trace/gauge conn id
	ig         *obs.Gauge // this connection's dist_conn_inflight sample
}

// newConnState starts connection idx's per-run view, idle and on the
// watchdog clock until its hello.
func newConnState(c *wconn, idx int) *connState {
	return &connState{c: c, shard: -1, since: time.Now(), idx: idx, ig: connInflightGauge(idx)}
}

var errBackendClosed = errors.New("dist: backend closed")

// run is one Run call's coordinator state: the shard queue, per-shard
// attempt counts, per-connection in-flight slots, and the liveness
// watchdog.
type run struct {
	be     *connBackend
	tun    Tuning
	shards []*ShardDesc
	out    []*ShardResult

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []int
	attempts []int   // dispatches so far, per shard
	shardErr []error // terminal per-shard error (deterministic failure or attempts exhausted)

	conns     []*connState
	live      int
	remaining int
	aborted   error
	stats     RunStats
	tl        *obs.Timeline // the backend's lifetime trace ring

	wg sync.WaitGroup
}

func newRun(be *connBackend, shards []*ShardDesc) *run {
	r := &run{
		be:       be,
		tun:      be.tun,
		shards:   shards,
		out:      make([]*ShardResult, len(shards)),
		attempts: make([]int, len(shards)),
		shardErr: make([]error, len(shards)),

		remaining: len(shards),
		tl:        be.tl,
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *run) finishedLocked() bool { return r.remaining == 0 || r.aborted != nil }

// execute drives the run to completion on the given starting connections
// (more may join via addConn).
func (r *run) execute(conns []*wconn) ([]*ShardResult, error) {
	// Deal largest-first, the same policy as sim.Sweep: long shards
	// start early. The queue is consumed from the front.
	order := make([]int, len(r.shards))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(r.shards[order[a]].Cases) > len(r.shards[order[b]].Cases)
	})
	r.queue = order

	if len(conns) == 0 {
		return nil, errors.New("dist: no usable worker connections")
	}
	// live is pre-counted before any loop starts so an instantly-dying
	// first connection cannot see live==0 while others are still being
	// spawned.
	r.live = len(conns)
	for i, c := range conns {
		r.conns = append(r.conns, newConnState(c, i))
	}
	r.tl.Instant("run-start", "run", -1, fmt.Sprintf("%d shards, %d conns", len(r.shards), len(conns)))
	for _, cs := range r.conns {
		r.wg.Add(1)
		go r.connLoop(cs)
	}
	var watchStop chan struct{}
	if !r.tun.watchdogOff() {
		watchStop = make(chan struct{})
		go r.watch(watchStop)
	}
	r.wg.Wait()
	if watchStop != nil {
		close(watchStop)
	}
	r.tl.Instant("run-end", "run", -1, "")

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.attempts {
		if a > r.stats.MaxAttempts {
			r.stats.MaxAttempts = a
		}
	}
	if r.aborted != nil {
		return nil, r.aborted
	}
	for si, err := range r.shardErr {
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d: %w", si, err)
		}
	}
	for si, res := range r.out {
		if res == nil {
			return nil, fmt.Errorf("dist: shard %d never completed", si)
		}
	}
	return r.out, nil
}

// deadlineLocked is cs's current deadline, counted from cs.since: the
// base plus the per-case allowance of the shard in flight on it. Every
// production shard answers within a small fraction of the base, so the
// deadline only trips on a genuinely hung or unreachable worker.
func (r *run) deadlineLocked(cs *connState) time.Duration {
	d := r.tun.BaseDeadline
	if cs.shard >= 0 {
		d += time.Duration(len(r.shards[cs.shard].Cases)) * r.tun.PerCase
	}
	return d
}

// watch is the liveness watchdog: it periodically severs any connection
// whose in-flight shard has gone unanswered past its deadline. Severing
// the transport makes the connection's read fail, which funnels the
// requeue through the ordinary connDead path.
func (r *run) watch(stop chan struct{}) {
	tick := r.tun.BaseDeadline / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			var sever []*connState
			r.mu.Lock()
			for _, cs := range r.conns {
				// A conn with a shard in flight must answer it; a conn
				// that never finished its handshake (hello lost or the
				// worker wedged on connect) is on the same clock — an
				// idle post-hello conn is the only state with no deadline.
				if cs.dead || (cs.helloed && cs.shard < 0) {
					continue
				}
				if gap := now.Sub(cs.since); gap > r.deadlineLocked(cs) {
					cs.deadReason = fmt.Errorf("dist: worker made no progress for %v (deadline %v)",
						gap.Round(time.Millisecond), r.deadlineLocked(cs))
					sever = append(sever, cs)
				}
			}
			r.mu.Unlock()
			for _, cs := range sever {
				if cs.c.c != nil {
					_ = cs.c.c.Close()
				}
			}
		}
	}
}

// connLoop runs one connection: handshake, then deal the connection one
// shard at a time — send it, read the answer, retire it — until the run
// finishes or the connection dies.
func (r *run) connLoop(cs *connState) {
	defer r.wg.Done()
	c := cs.c
	if err := c.handshake(); err != nil {
		r.connDead(cs, err)
		return
	}
	var scratch, buf []byte
	r.mu.Lock()
	cs.helloed = true
	for {
		for len(r.queue) == 0 && !r.finishedLocked() {
			r.cond.Wait()
		}
		if r.finishedLocked() {
			break
		}
		si := r.queue[0]
		r.queue = r.queue[1:]
		r.attempts[si]++
		cs.shard, cs.sent, cs.since = si, r.tl.Now(), time.Now()
		attempt := r.attempts[si]
		r.mu.Unlock()
		obsDispatched.Inc()
		cs.ig.Add(1)
		r.tl.Instant("dispatch", "shard", int64(si), fmt.Sprintf("conn=%d attempt=%d", cs.idx, attempt))
		var payload []byte
		var err error
		if scratch, err = c.sendShard(si, r.shards[si], scratch); err == nil {
			if payload, err = ReadFrameSum(c.r, buf); err == nil {
				buf = payload[:0]
				err = r.handleFrame(cs, payload)
			}
		}
		if err != nil {
			r.connDead(cs, err)
			return
		}
		r.mu.Lock()
	}
	r.mu.Unlock()
}

// handleFrame processes the worker's answer to the shard in flight on
// cs; a non-nil error means the stream is no longer trustworthy and the
// connection must die.
func (r *run) handleFrame(cs *connState, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("dist: empty frame from worker")
	}
	d := &rd{data: payload[1:]}
	id := d.uvarint()
	if d.err != nil {
		return d.err
	}
	si := cs.shard
	if id != uint64(si) {
		return fmt.Errorf("dist: worker sent frame type %d for shard %d not in flight here", payload[0], id)
	}
	switch payload[0] {
	case frameResult:
		res := new(ShardResult)
		if err := res.Decode(d.data); err != nil {
			return err
		}
		sh := r.shards[si]
		if len(res.Cases) != len(sh.Cases) {
			return fmt.Errorf("dist: shard %d result carries %d of %d cases", si, len(res.Cases), len(sh.Cases))
		}
		e, err := cs.c.gc.lookup(sh)
		if err != nil {
			// The coordinator cannot materialize its own descriptor's
			// graph: deterministic, not a transport fault.
			r.completeShard(cs, nil, err)
			return nil
		}
		if err := verifySigBytes(e.viewSig(), res.ViewSig); err != nil {
			return fmt.Errorf("dist: shard %d: %w", si, err)
		}
		r.completeShard(cs, res, nil)
		obsChunks.Inc()
		return nil

	case frameError:
		msg := d.str(maxErrStrLen, "error message")
		if d.err != nil {
			return d.err
		}
		// Worker-reported execution errors are deterministic — the same
		// descriptor fails the same way on every worker — so they are
		// terminal for the shard, never requeued.
		r.completeShard(cs, nil, fmt.Errorf("failed on worker: %s", msg))
		return nil

	default:
		return fmt.Errorf("dist: unexpected frame type %d from worker", payload[0])
	}
}

// completeShard retires cs's in-flight shard — with the aggregate its
// result frame carried, or with a terminal per-shard error — and closes
// its trace span.
func (r *run) completeShard(cs *connState, res *ShardResult, err error) {
	r.mu.Lock()
	si, startNs := cs.shard, cs.sent
	cs.shard = -1
	attempt := r.attempts[si]
	if err != nil {
		r.shardErr[si] = err
	} else {
		r.out[si] = res
		r.stats.Chunks++
	}
	r.remaining--
	r.mu.Unlock()
	cs.ig.Add(-1)
	obsCompleted.Inc()
	arg := fmt.Sprintf("conn=%d attempt=%d", cs.idx, attempt)
	if err != nil {
		arg += " error"
	}
	r.tl.Span("shard", "shard", int64(si), startNs, arg)
	r.cond.Broadcast()
}

// connDead retires a connection: its in-flight shard goes back to the
// queue (or to a per-shard error once its attempt budget is spent), the
// backend gets a chance to replace the worker (NewLocal respawn), and if
// no live connection remains the run aborts. Only cs's own connLoop
// calls it, once.
func (r *run) connDead(cs *connState, cause error) {
	r.mu.Lock()
	cs.dead = true
	cs.c.broken = true
	if cs.deadReason != nil {
		cause = fmt.Errorf("%v (%w)", cs.deadReason, cause)
	}
	r.stats.DeadConns++
	obsDeadConns.Inc()
	r.tl.Instant("conn-dead", "conn", int64(-1-cs.idx), truncateErrMsg(cause.Error(), 96))
	if si := cs.shard; si >= 0 {
		cs.shard = -1
		cs.ig.Add(-1)
		r.tl.Span("shard", "shard", int64(si), cs.sent,
			fmt.Sprintf("conn=%d attempt=%d conn-dead", cs.idx, r.attempts[si]))
		if r.attempts[si] >= r.tun.MaxAttempts {
			r.shardErr[si] = fmt.Errorf("failed after %d dispatch attempts: last worker error: %w", r.attempts[si], cause)
			r.remaining--
			obsCompleted.Inc()
			r.tl.Instant("attempts-exhausted", "shard", int64(si), "")
		} else {
			r.stats.Requeues++
			obsRequeued.Inc()
			r.queue = append(r.queue, si)
			r.tl.Instant("requeue", "shard", int64(si), "")
		}
	}
	r.live--
	r.mu.Unlock()
	if cs.c.c != nil {
		_ = cs.c.c.Close()
	}
	// Give the backend a chance to refill the fleet (NewLocal respawn)
	// BEFORE deciding the sweep is dead: a synchronous replacement joins
	// the run inside notifyDead, so live is already refreshed below.
	r.be.notifyDead()
	r.mu.Lock()
	if r.live == 0 && r.remaining > 0 && r.aborted == nil {
		done := len(r.shards) - r.remaining
		r.aborted = fmt.Errorf("dist: no live workers remain (%d/%d shards done): last connection error: %w",
			done, len(r.shards), cause)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// addConn joins one more connection to the running sweep.
func (r *run) addConn(c *wconn) {
	r.mu.Lock()
	if r.finishedLocked() {
		r.mu.Unlock()
		return
	}
	idx := len(r.conns)
	cs := newConnState(c, idx)
	r.conns = append(r.conns, cs)
	r.live++
	r.stats.Joined++
	obsJoinedConns.Inc()
	r.wg.Add(1)
	r.mu.Unlock()
	r.tl.Instant("conn-join", "conn", int64(-1-idx), "")
	go r.connLoop(cs)
}

// connBackend is the shared backend body: a growable set of worker
// connections plus a closer for whatever owns them.
type connBackend struct {
	tun Tuning

	mu      sync.Mutex
	conns   []*wconn
	active  *run
	closing bool
	stats   RunStats

	runWG sync.WaitGroup // outstanding Run calls

	stop        func() error
	onConnDead  func()        // respawn hook (NewLocal); called outside mu
	maxRespawns int           // WithRespawn's budget, read by the NewLocal hook
	tl          *obs.Timeline // lifetime shard-lifecycle trace (see dist.Timeline)
}

func newConnBackend(conns []*wconn, stop func() error, opts ...Option) *connBackend {
	b := &connBackend{conns: conns, stop: stop, tun: Tuning{}.withDefaults(),
		tl: obs.NewTimeline(traceCap)}
	for _, o := range opts {
		o(b)
	}
	return b
}

func (b *connBackend) Run(shards []*ShardDesc) ([]*ShardResult, error) {
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		return nil, errBackendClosed
	}
	if b.active != nil {
		b.mu.Unlock()
		return nil, errors.New("dist: concurrent Run calls on one backend")
	}
	if len(shards) == 0 {
		b.mu.Unlock()
		return make([]*ShardResult, 0), nil
	}
	r := newRun(b, shards)
	b.active = r
	b.runWG.Add(1)
	usable := make([]*wconn, 0, len(b.conns))
	for _, c := range b.conns {
		if !c.broken {
			usable = append(usable, c)
		}
	}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.active = nil
		b.stats = r.stats
		b.mu.Unlock()
		b.runWG.Done()
	}()
	// Spare connections beyond the shard count still join: after a
	// failure they are the surviving workers the requeued shards need.
	return r.execute(usable)
}

// AddConn attaches one more worker connection to the backend. If a Run
// is in flight the connection joins it immediately, picking up queued
// and requeued shards; otherwise it waits for the next Run.
func (b *connBackend) AddConn(rw io.ReadWriter, closer io.Closer) {
	c := newWconn(rw, closer)
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		if closer != nil {
			_ = closer.Close()
		}
		return
	}
	b.conns = append(b.conns, c)
	r := b.active
	b.mu.Unlock()
	if r != nil {
		r.addConn(c)
	}
}

// notifyDead invokes the respawn hook, if any, unless the backend is
// shutting down (a worker dying because Close severed it must not be
// replaced).
func (b *connBackend) notifyDead() {
	b.mu.Lock()
	hook := b.onConnDead
	closing := b.closing
	b.mu.Unlock()
	if hook != nil && !closing {
		hook()
	}
}

// Close closes every worker transport, which hands each worker the EOF
// that ends it. An in-flight Run fails out on the closed transports and
// aborts; Close awaits it, so it never returns while a dispatch goroutine
// can still touch a connection.
func (b *connBackend) Close() error {
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		return nil
	}
	b.closing = true
	conns := append([]*wconn(nil), b.conns...)
	b.mu.Unlock()
	for _, c := range conns {
		if c.c != nil {
			_ = c.c.Close()
		}
	}
	b.runWG.Wait()
	if b.stop != nil {
		return b.stop()
	}
	return nil
}

func newWconn(rw io.ReadWriter, closer io.Closer) *wconn {
	return &wconn{
		r: bufio.NewReaderSize(rw, 1<<16),
		w: bufio.NewWriterSize(rw, 1<<16),
		c: closer,
	}
}

// NewInProcess returns a backend that serves the protocol over in-memory
// pipes to worker goroutines in this process — the default execution
// path of the experiment sweeps, and the reference the multi-process
// backends are differentially pinned against. workers <= 0 selects
// GOMAXPROCS. Descriptors and results still round-trip through the full
// wire codec, so the in-process and multi-process paths run byte-for-byte
// the same protocol; only the transport differs.
func NewInProcess(workers int, opts ...Option) Backend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	conns := make([]*wconn, workers)
	var wg sync.WaitGroup
	for i := range conns {
		coord, worker := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer worker.Close()
			// Serve returns when the coordinator side closes.
			_ = Serve(worker, worker)
		}()
		conns[i] = newWconn(coord, coord)
	}
	b := newConnBackend(conns, func() error { wg.Wait(); return nil }, opts...)
	// Watchdog off whatever the options say (see NoDeadline): an
	// in-process worker dying is a pipe close, not a silent hang.
	b.tun.BaseDeadline = NoDeadline
	return b
}

// child is one forked worker process: its connection writes to and
// closes the embedded stdin pipe, and reads the stdout pipe through
// Read. The connection's reader owns the process: os/exec's Wait closes
// the stdout pipe, so it must not run while the pipe is still being
// read. The read that reaches the pipe's end reaps the process, and an
// abnormal exit replaces that bare EOF with the exit status, which then
// reaches the connection's death cause. The fleet reaps at Close any
// child whose reader never got that far.
type child struct {
	io.WriteCloser
	out   io.Reader
	cmd   *exec.Cmd
	once  sync.Once
	ended error // the abnormal exit, set once reaped
}

func (c *child) Read(p []byte) (int, error) {
	n, err := c.out.Read(p)
	if err == io.EOF {
		if exit := c.reap(); exit != nil {
			err = exit
		}
	}
	return n, err
}

// reap waits for the process once and returns its abnormal exit, if any.
func (c *child) reap() error {
	c.once.Do(func() {
		if err := c.cmd.Wait(); err != nil {
			c.ended = fmt.Errorf("worker exited: %w", err)
		}
	})
	return c.ended
}

// localFleet is the process-management state behind NewLocal: the forked
// worker processes and the respawns spent so far.
type localFleet struct {
	argv     []string
	selfExec bool

	mu       sync.Mutex
	respawns int
	children []*child
}

func (l *localFleet) spawn() (*child, error) {
	cmd := exec.Command(l.argv[0], l.argv[1:]...)
	if l.selfExec {
		cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: starting worker %v: %w", l.argv, err)
	}
	c := &child{WriteCloser: stdin, out: stdout, cmd: cmd}
	l.mu.Lock()
	l.children = append(l.children, c)
	l.mu.Unlock()
	return c, nil
}

// reapAll reaps every worker process its reader has not, and returns
// the first abnormal exit. Callers hold no reader: each connection's
// transport is closed and no Run is active.
func (l *localFleet) reapAll() error {
	l.mu.Lock()
	children := append([]*child(nil), l.children...)
	l.mu.Unlock()
	var first error
	for _, c := range children {
		if err := c.reap(); err != nil && first == nil {
			first = fmt.Errorf("dist: %w", err)
		}
	}
	return first
}

// WithRespawn lets a NewLocal backend fork up to max replacement worker
// processes: whenever a connection dies mid-sweep (worker crashed, was
// killed, hit a poison shard), a fresh process is spawned and joins the
// running sweep — the elastic half of the fault-tolerant fleet. The
// budget bounds fork storms from a systematically-crashing binary. Other
// backends ignore it.
func WithRespawn(max int) Option {
	return func(b *connBackend) { b.maxRespawns = max }
}

// NewLocal returns a backend that forks `workers` OS worker processes on
// this machine and speaks the protocol over their stdin/stdout — the
// single-machine scale-out mode behind `rvx --dist-workers`. argv names
// the worker binary and its arguments (typically cmd/rvworker); a nil
// argv re-execs the current binary with WorkerEnv set, which any binary
// that calls RunWorkerIfChild first thing in main supports. Worker
// stderr passes through to the coordinator's stderr. With WithRespawn,
// crashed workers are replaced mid-sweep.
func NewLocal(workers int, argv []string, opts ...Option) (Backend, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fl := &localFleet{argv: argv, selfExec: len(argv) == 0}
	if fl.selfExec {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: resolving own binary for self-exec workers: %w", err)
		}
		fl.argv = []string{self}
	}
	conns := make([]*wconn, 0, workers)
	for i := 0; i < workers; i++ {
		c, err := fl.spawn()
		if err != nil {
			for _, c := range fl.children {
				_ = c.cmd.Process.Kill()
			}
			_ = fl.reapAll()
			return nil, err
		}
		conns = append(conns, newWconn(c, c))
	}
	b := newConnBackend(conns, fl.reapAll, opts...)
	b.onConnDead = func() {
		fl.mu.Lock()
		if fl.respawns >= b.maxRespawns {
			fl.mu.Unlock()
			return
		}
		fl.respawns++
		fl.mu.Unlock()
		c, err := fl.spawn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist: respawning worker: %v\n", err)
			return
		}
		b.AddConn(c, c)
	}
	return b, nil
}

// DialRetry tunes the connection-retry loop Dial runs per address: up
// to Attempts tries, sleeping between them with capped exponential
// backoff plus jitter (the delay before try n+1 is drawn uniformly from
// [b/2, b] where b = min(Base<<n, Cap)). Workers that
// come up slower than their coordinator — the daemon-restart shape —
// are absorbed instead of failing the whole fleet on the first refused
// connection.
type DialRetry struct {
	Attempts int           // total connection attempts per address (default 5)
	Base     time.Duration // first backoff step (default 50ms)
	Cap      time.Duration // backoff ceiling (default 2s)
}

func (rt DialRetry) withDefaults() DialRetry {
	if rt.Attempts <= 0 {
		rt.Attempts = 5
	}
	if rt.Base <= 0 {
		rt.Base = 50 * time.Millisecond
	}
	if rt.Cap <= 0 {
		rt.Cap = 2 * time.Second
	}
	return rt
}

// dialRetry dials addr with rt's backoff schedule. The returned error
// carries the attempt count.
func dialRetry(rt DialRetry, addr string) (net.Conn, error) {
	rt = rt.withDefaults()
	var lastErr error
	backoff := rt.Base
	for attempt := 1; attempt <= rt.Attempts; attempt++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if attempt == rt.Attempts {
			break
		}
		// Jitter in [backoff/2, backoff]: desynchronizes a fleet of
		// coordinators re-dialing the same restarted worker.
		d := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		time.Sleep(d)
		if backoff < rt.Cap {
			if backoff *= 2; backoff > rt.Cap {
				backoff = rt.Cap
			}
		}
	}
	return nil, fmt.Errorf("dist: dialing worker %s: %w (after %d attempts)", addr, lastErr, rt.Attempts)
}

// Dial returns a backend over TCP connections to already-running
// protocol workers (`rvworker -listen`), one connection per address —
// the multi-machine mode. Addresses may repeat to open several
// connections to one worker host. Each address is dialed with the
// default DialRetry backoff schedule; DialWith customizes it.
func Dial(addrs []string, opts ...Option) (Backend, error) {
	return DialWith(DialRetry{}, addrs, opts...)
}

// DialWith is Dial with an explicit retry schedule.
func DialWith(rt DialRetry, addrs []string, opts ...Option) (Backend, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: Dial needs at least one worker address")
	}
	conns := make([]*wconn, 0, len(addrs))
	for _, a := range addrs {
		c, err := dialRetry(rt, a)
		if err != nil {
			for _, open := range conns {
				_ = open.c.Close()
			}
			return nil, err
		}
		conns = append(conns, newWconn(c, c))
	}
	return newConnBackend(conns, nil, opts...), nil
}
