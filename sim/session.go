package sim

import (
	"iter"
	"slices"

	"repro/agent"
	"repro/graph"
)

// runStats is one run's scheduler statistics: the wakeup count and its
// per-phase breakdown. Every run accumulates into its session's
// instance, which each runner it acquires points at.
type runStats struct {
	wakeups   uint64
	wakeupsBy [agent.PhaseCount]uint64
	// replayed counts the agent-rounds burst took from a block record
	// instead of walking them (see blockRecord).
	replayed uint64
}

// Session owns a pool of runners — the coroutine and the per-agent
// scratch buffers behind one simulated agent — and reuses them across
// runs. Creating those per run is the simulator's last steady-state
// allocator (ROADMAP: "the simulator session itself"), so the experiment
// sweeps thread a Session through each worker's Scratch and run every
// case of a shard on warm runners.
//
// A Session is used by one goroutine: exactly one Run/RunPrograms/
// RunMany may be active on it at a time (sweeps use one Session per
// worker). Close stops the pooled coroutines; a Session used via
// Scratch.Session is closed by Sweep itself when the worker retires.
type Session struct {
	free []*runner

	// stats holds the most recent run's scheduler statistics (see
	// Wakeups; the per-phase counts reach only the obs registry).
	stats runStats

	// run is the scheduler state, reused from run to run (see sim.go).
	run runState
}

// Wakeups returns the number of scheduler-agent interactions (requests
// pulled from agent programs, each one coroutine switch into the program
// and one back) during the session's most recent
// Run/RunPrograms/RunMany. It is a debug statistic: the batching work
// lives or dies by this number, and the wakeup regression tests pin it
// so a producer change cannot silently fall back to per-move chatter.
func (s *Session) Wakeups() uint64 { return s.stats.wakeups }

// resetStats clears the per-run statistics at the start of a run.
func (s *Session) resetStats() {
	s.stats = runStats{}
}

// NewSession returns an empty session; runners are created on demand.
func NewSession() *Session { return &Session{} }

// acquire hands out a warm runner (or creates one, with its coroutine)
// and assigns it the given program. Nothing runs yet: the run's first
// fetch resumes the coroutine, which starts prog and runs it up to its
// first request. Every request the run consumes is counted into the
// session's stats.
func (s *Session) acquire(g *graph.Graph, prog agent.Program, start int) *runner {
	var r *runner
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else {
		r = &runner{log: make([]int, burstChunk)}
		r.next, r.stop = iter.Pull(r.body)
	}
	r.g = g
	r.prog = prog
	r.stats = &s.stats
	r.pos = start
	r.entry = -1
	r.state = stNeedReq
	r.moves = 0
	r.script = nil
	r.scriptAt = 0
	r.scriptLead = 0
	r.scriptWaitRun = 0
	r.scriptQuiet = false
	r.copiesLeft = 0
	r.replaying = false
	r.rec.state = recNone // a record holds for one run's graph only
	return r
}

// release returns a runner to the pool once its program is parked between
// runs. A program that has not ended is parked in a World call, or has
// not started: release resumes it once with the abort flag set, which
// unwinds it through stopSentinel from that call, or ends it before its
// first line. None of its code after the call runs; its defers do, before
// Run*/RunMany return. The terminal request that comes back is dropped.
func (s *Session) release(r *runner) {
	live := true
	if r.state != stDone {
		r.abort = true
		_, live = r.next()
		r.abort = false
	}
	r.prog = nil
	r.script = nil
	r.stats = nil
	if !live {
		return // the coroutine exited (the program called runtime.Goexit)
	}
	s.free = append(s.free, r)
}

// Close stops every pooled runner's coroutine; each stop returns once its
// coroutine has exited. All runs on the session must have finished first.
func (s *Session) Close() {
	for _, r := range s.free {
		r.stop()
	}
	s.free = nil
}

// Run is the session-pooled form of the package-level Run.
func (s *Session) Run(g *graph.Graph, prog agent.Program, u, v int, delay uint64, cfg Config) Result {
	return s.RunPrograms(g, prog, prog, u, v, delay, cfg)
}

type agentState int

const (
	stNeedReq agentState = iota
	stMovePending
	stScript
	stDone
)

type reqKind int

const (
	reqMove reqKind = iota
	reqScript
	reqDone
	reqPanic
)

type request struct {
	kind reqKind
	port int
	// rounds is a reqScript's LEAD — a deferred wait the scheduler
	// fast-forwards in O(1) (the agent parked at its node, position
	// static, no percepts, no entries) before the script's first action
	// runs. The lead is how the world merges an arbitrarily long deferred
	// wait into its next script without materializing ScriptWait rounds
	// (or, flushed, into an empty one): one handshake, zero per-round
	// cost.
	rounds uint64
	script []int
	// quiet marks a side-effects-only script (agent.RunSeq): the grant
	// carries no percept streams, so in-script ScriptWait runs advance in
	// O(1) with no per-round buffer writes. Every other script
	// (World.MoveSeq) has the scheduler fill the runner's entry and degree
	// buffers in the same lock-step loop and hand both back in the grant.
	quiet bool
	// phase is the agent.Phase the producing procedure had set when the
	// request was issued — pure attribution for the wakeup histogram.
	phase agent.Phase
	val   any // panic value for reqPanic
}

// grantMsg is the scheduler's answer to a program's request, stored on
// the runner before the fetch that resumes the program.
type grantMsg struct {
	degree  int
	entry   int
	entries []int // per-action entry ports, for MoveSeq grants
	degrees []int // per-action degrees, for MoveSeq grants
	// rounds is the rounds a quiet script ran, its lead excluded.
	rounds uint64
}

// stopSentinel unwinds an agent program when its run is aborted, or when
// a lone run (Solo) reaches its budget.
type stopSentinel struct{}

type runner struct {
	g        *graph.Graph
	state    agentState
	pos      int
	entry    int
	movePort int
	moves    uint64

	// Script execution state (stScript): the pending action list, the
	// cursor, the entry-port and degree results accumulated so far
	// (quiet scripts leave the degrees unfilled), and the cached length
	// of the run of consecutive ScriptWait actions at the cursor (0 = not
	// computed or cursor on a move). scriptLead is the pending lead — deferred or SeqWait-encoded wait rounds
	// fast-forwarded in O(1) (position static, no entries produced)
	// before the next action runs; the cursor never rests on an escape
	// (settle folds SeqWaits into the lead and opens SeqRepeat blocks).
	// scriptRounds is a quiet script's round count, for the grant: its
	// length, adjusted as settle decodes each escape.
	script        []int
	scriptAt      int
	scriptLead    uint64
	scriptRounds  uint64
	scriptEntries []int
	scriptDegs    []int
	scriptWaitRun uint64
	scriptQuiet   bool

	// Segments: segEnd ends the run of plain actions at the cursor, the
	// next escape or the script's end (a plain script is one segment).
	// In a SeqRepeat block, blockStart is its first action and
	// copiesLeft counts the copies after the current one: the cursor
	// wraps from segEnd back to blockStart, lazily (see wrap), so inside
	// a burst it may rest at segEnd, never between bursts. replaying
	// marks a block whose copies burst takes from rec.
	segEnd     int
	blockStart int
	copiesLeft uint64
	replaying  bool

	// log is the burst kernel's position log: the node after each round
	// of the current chunk (see burst); walkedN counts the rounds its
	// last walk ran.
	log     []int
	walkedN int

	// Cold tail — touched once per script or per run, never per round:
	// the statistics sink of the current run (its session's runStats),
	// updated per request pulled.
	stats *runStats
	rec   blockRecord

	// next and stop drive the runner's coroutine (see body), created once
	// with the runner: next resumes the program until its next request,
	// stop ends the coroutine for good (Session.Close). The scheduler and
	// the program never run at once — each hand-off is one coroutine
	// switch — so the hand-off itself is plain fields: prog is the
	// assigned program, started by the run's first fetch; grant answers
	// the program's last request, stored before the fetch that resumes
	// it; abort, set only inside release, makes a resume unwind the
	// program instead.
	next  func() (request, bool)
	stop  func()
	prog  agent.Program
	grant grantMsg
	abort bool
}

// body is the runner's coroutine: it runs one assigned program after
// another, parking at a terminal yield between runs (the next run's
// first fetch resumes it there), until Session.Close stops it. The world
// value is reused across runs.
func (r *runner) body(yield func(request) bool) {
	w := &world{r: r, yield: yield}
	for yield(w.run()) {
	}
}

// fetch pulls the agent's next action if the scheduler needs one: it
// resumes the program — acting on the stored grant, or starting the run
// — up to its next request.
func (r *runner) fetch() {
	if r.state != stNeedReq {
		return
	}
	rq, _ := r.next()
	r.consume(rq)
}

// consume applies one request to the runner's scheduler state, counting
// it into the run's statistics.
func (r *runner) consume(rq request) {
	s := r.stats
	s.wakeups++
	// agent.SetPhase accepts any Phase value; out-of-range tags
	// attribute to PhaseOther rather than indexing out of bounds.
	if p := rq.phase; p < agent.PhaseCount {
		s.wakeupsBy[p]++
	} else {
		s.wakeupsBy[agent.PhaseOther]++
	}
	switch rq.kind {
	case reqMove:
		r.state = stMovePending
		r.movePort = rq.port
	case reqScript:
		r.state = stScript
		r.script = rq.script
		r.scriptAt = 0
		r.scriptLead = rq.rounds
		r.scriptQuiet = rq.quiet
		// Reuse the per-runner percept buffers (the World.MoveSeq
		// contract makes the previous grant's slices invalid once the
		// agent issues a new action), so scripted hot loops allocate
		// nothing. Quiet scripts keep the entries buffer too — the
		// per-move write costs less than a hot-loop branch to skip it;
		// only their wait-run and degree fills are elided.
		n := len(rq.script)
		r.scriptEntries = slices.Grow(r.scriptEntries[:0], n)[:n]
		if !rq.quiet {
			r.scriptDegs = slices.Grow(r.scriptDegs[:0], n)[:n]
		}
		r.scriptWaitRun = 0
		r.scriptRounds = uint64(len(rq.script))
		r.segEnd = r.nextEscape(0)
		r.copiesLeft = 0
		r.replaying = false
		r.settle()
	case reqDone:
		r.state = stDone
	case reqPanic:
		// The program has unwound and its coroutine is parked between
		// runs; mark it terminal so release leaves it be, then surface
		// the program's panic to the caller.
		r.state = stDone
		panic(rq.val)
	}
}

// waitRun returns the cached length of the ScriptWait run at the script
// cursor, computing it on first use so repeated queries stay O(1)
// amortized. Only valid when the cursor is on a ScriptWait.
func (r *runner) waitRun() uint64 {
	if r.scriptWaitRun == 0 {
		i := r.scriptAt
		for i < len(r.script) && r.script[i] == agent.ScriptWait {
			i++
		}
		r.scriptWaitRun = uint64(i - r.scriptAt)
	}
	return r.scriptWaitRun
}

// roundsUntilMove returns for how many rounds this agent is guaranteed to
// stay at its current node: 0 when its next round is a move, the lead or
// wait-run length when it is waiting, forever once terminated. Rounds in
// which every agent's count is positive cannot produce a new meeting.
func (r *runner) roundsUntilMove() uint64 {
	switch r.state {
	case stMovePending:
		return 0
	case stScript:
		if r.scriptLead > 0 {
			// A trailing lead may leave the cursor past the last action;
			// the lead itself is a valid (conservative) stationary bound.
			return r.scriptLead
		}
		if r.script[r.scriptAt] != agent.ScriptWait {
			return 0
		}
		return r.waitRun()
	case stDone:
		return ^uint64(0)
	}
	return 0
}

// settle brings a script to its next observable state after its cursor
// moved: at a segment's end it starts the block's next copy, or, past
// the block, folds SeqWait escapes into the lead and opens SeqRepeat
// blocks; a script with no action and no lead left finishes.
func (r *runner) settle() {
	for r.scriptAt == r.segEnd {
		if r.copiesLeft > 0 {
			r.wrap()
			break
		}
		r.replaying = false
		if r.scriptAt == len(r.script) {
			break
		}
		a := r.script[r.scriptAt]
		r.scriptAt++
		if n, ok := agent.SeqWaitRounds(a); ok {
			r.scriptLead += n
			r.scriptRounds += n - 1
			r.segEnd = r.nextEscape(r.scriptAt)
		} else {
			n, _ := agent.SeqRepeatCount(a)
			r.beginBlock(n)
		}
	}
	if r.scriptAt == len(r.script) && r.scriptLead == 0 {
		r.finishScript()
	}
}

// escBelow bounds the escapes of quiet scripts: every SeqWait and
// SeqRepeat action is below it (SeqRepeat(n) < SeqRepeat(0) for n >= 1,
// and SeqWait actions lie below all of them).
var escBelow = agent.SeqRepeat(0)

// nextEscape returns the first escape at or after i in a quiet script,
// else the script's end; plain scripts have no escapes.
func (r *runner) nextEscape(i int) int {
	if !r.scriptQuiet {
		return len(r.script)
	}
	for i < len(r.script) && r.script[i] >= escBelow {
		i++
	}
	return i
}

// beginBlock opens the SeqRepeat(copies) block at the cursor. Its copies
// replay from the runner's record when that holds a closed copy of the
// same actions from this node and entry; otherwise the first copy is
// recorded as it is walked.
func (r *runner) beginBlock(copies uint64) {
	bs := r.scriptAt
	r.blockStart, r.copiesLeft = bs, 0
	if rc := &r.rec; rc.state == recClosed && rc.fromPos == r.pos && rc.fromEnt == r.entry {
		// The record holds no escape, so an equal block ends where the
		// record's actions do, with an escape or the script's end next.
		e := bs + len(rc.acts)
		if e <= len(r.script) && (e == len(r.script) || r.script[e] < escBelow) && slices.Equal(r.script[bs:e], rc.acts) {
			r.segEnd, r.copiesLeft, r.replaying = e, copies-1, true
			r.scriptRounds += copies*uint64(e-bs) - uint64(e-bs) - 1
			return
		}
	}
	r.segEnd = r.nextEscape(bs)
	l := uint64(r.segEnd - bs)
	r.scriptRounds += copies*l - l - 1 // the escape itself runs no round
	if l > 0 {
		r.copiesLeft = copies - 1
		r.rec.acts = append(r.rec.acts[:0], r.script[bs:r.segEnd]...)
		r.recordCopy()
	}
}

// wrap starts the block's next copy when the cursor rests at the end of
// one with copies left. Unless the block replays, the new copy is
// recorded: a copy can close where the one before it did not (the first
// from an entry port the cycle never uses, say).
func (r *runner) wrap() {
	if r.scriptAt != r.segEnd || r.copiesLeft == 0 {
		return
	}
	r.scriptAt = r.blockStart
	r.copiesLeft--
	if !r.replaying {
		r.recordCopy()
	}
}

// runLeft returns the rounds before r's cursor leaves its segment: the
// rest of this copy and every copy after it.
func (r *runner) runLeft() uint64 {
	return uint64(r.segEnd-r.scriptAt) + r.copiesLeft*uint64(r.segEnd-r.blockStart)
}

// blockRecord is a runner's record of one walked copy of a SeqRepeat
// block: the block's actions, the node and entry the copy began from,
// and the node and entry after each of its rounds, with moves[i] the
// moves among its first i actions. A copy that ends on the node and
// entry it began from is closed: every later copy of the same actions
// from there runs the same rounds, the block's and any later block's in
// the same run, so burst copies their nodes from the record instead of
// walking them. acquire resets it; a copy some round of which is not
// walked inside a burst is not recorded.
type blockRecord struct {
	acts, pos, ent   []int
	moves            []uint64
	fromPos, fromEnt int
	state            recState
}

type recState uint8

const (
	recNone    recState = iota
	recWalking          // the copy at the cursor is being recorded
	recClosed           // pos, ent and moves hold a closed copy of acts
)

// recordCopy starts recording the copy at the cursor.
func (r *runner) recordCopy() {
	rc := &r.rec
	rc.fromPos, rc.fromEnt, rc.state = r.pos, r.entry, recWalking
	if cap(rc.pos) < len(rc.acts) {
		rc.pos = make([]int, len(rc.acts))
	}
	rc.pos = rc.pos[:len(rc.acts)]
}

// closeCopy ends the recording of a walked copy at its last round and,
// when the copy is closed, finishes the record and replays the block's
// remaining copies.
func (r *runner) closeCopy() {
	rc := &r.rec
	if rc.state = recNone; r.pos != rc.fromPos || r.entry != rc.fromEnt {
		return
	}
	rc.ent = append(rc.ent[:0], r.scriptEntries[r.blockStart:r.segEnd]...)
	rc.moves = append(rc.moves[:0], 0)
	for i, a := range rc.acts {
		m := rc.moves[i]
		if a != agent.ScriptWait {
			m++
		}
		rc.moves = append(rc.moves, m)
	}
	rc.state, r.replaying = recClosed, true
}

// finishScript hands the accumulated percepts back to the program and
// returns the runner to the request-pulling state. The buffers stay
// owned by the runner for reuse; the program may read them only until
// its next request (the MoveSeq contract), which the next fetch pulls
// after this grant.
func (r *runner) finishScript() {
	entries, degrees := r.scriptEntries, r.scriptDegs
	if r.scriptQuiet {
		entries, degrees = nil, nil // quiet grants carry no (partially unfilled) streams
	}
	r.grant = grantMsg{degree: r.g.Degree(r.pos), entry: r.entry, entries: entries, degrees: degrees, rounds: r.scriptRounds}
	r.state = stNeedReq
	r.script = nil
	r.scriptQuiet = false
}

// advance applies k rounds of this agent's pending action: k at most
// roundsUntilMove, or exactly 1 when that is 0.
func (r *runner) advance(k uint64) {
	switch r.state {
	case stMovePending:
		to, ep := r.g.Succ(r.pos, r.movePort)
		r.pos, r.entry = to, ep
		r.moves++
		r.grant = grantMsg{degree: r.g.Degree(to), entry: ep}
		r.state = stNeedReq
	case stScript:
		if r.scriptLead > 0 {
			// Lead rounds: the deferred or SeqWait-carried wait — position
			// static, no entries produced, O(1) consumption.
			r.scriptLead -= k
			if r.scriptLead == 0 {
				r.settle()
			}
			return
		}
		// A copy with a round stepped here, outside burst, goes
		// unrecorded.
		if r.rec.state == recWalking {
			r.rec.state = recNone
		}
		if r.script[r.scriptAt] == agent.ScriptWait {
			// k rounds of a (cached) wait run: positions are static, the
			// entry and degree percepts are unchanged. Quiet scripts skip
			// the result fills entirely — the run is one O(1) skip.
			r.scriptWaitRun = r.waitRun() - k
			if r.scriptQuiet {
				r.scriptAt += int(k)
			} else {
				d := r.g.Degree(r.pos)
				for i := uint64(0); i < k; i++ {
					r.scriptEntries[r.scriptAt] = r.entry
					r.scriptDegs[r.scriptAt] = d
					r.scriptAt++
				}
			}
			r.settle()
		} else {
			walk(r, nil, 1)
			r.settle()
		}
	case stDone:
		// nothing to do
	}
}

// world implements agent.World on top of a runner's coroutine. It lives
// in the coroutine; deg/entry/clock mirror the agent's own knowledge.
// Its methods may be called only from the program itself: each request
// yields the coroutine, and a yield from any other goroutine is
// undefined.
//
// Waits are deferred: Wait only accumulates rounds locally, and the
// accumulated stretch reaches the scheduler merged with the agent's next
// action — carried as the LEAD of the next script request (fast-forwarded
// in O(1) before the script's first action), or flushed as the lead of
// an empty quiet script when the program ends or the accumulator cap
// binds. Waiting changes no percept and no position, so the merge is
// invisible to the program and to the other agents: the scheduler still
// advances the exact same number of rounds with the agent parked at the
// same node. It just hears about them in one handshake instead of many —
// the dominant cost of padding-heavy programs, whose phase bookkeeping
// emits long runs of adjacent waits.
type world struct {
	r     *runner
	yield func(request) bool
	deg   int
	entry int
	clock uint64
	// pendingWait is the deferred-wait accumulator; scriptBuf backs the
	// one-action script a Move with a pending wait turns into.
	pendingWait uint64
	scriptBuf   []int
	// phase is the current agent.Phase tag, stamped on every request the
	// world sends (agent.PhaseTagger; attribution only, no semantics).
	phase agent.Phase
}

// run executes the runner's assigned program to completion, abort or
// panic and returns its terminal request: reqPanic carrying a program
// panic — recovered here, so the coroutine survives and the runner stays
// reusable — else reqDone. An aborted run's reqDone reaches only
// release, which discards it; a program aborted before it started never
// runs.
func (w *world) run() (rq request) {
	defer func() {
		rec := recover()
		rq = request{kind: reqDone, phase: w.phase}
		if _, aborted := rec.(stopSentinel); aborted {
			return
		}
		// A deferred wait precedes the terminal condition in program
		// order, so it must reach the scheduler first.
		if w.flushWaitQuiet() && rec != nil {
			rq = request{kind: reqPanic, val: rec, phase: w.phase}
		}
	}()
	r := w.r
	w.entry, w.clock, w.pendingWait, w.phase = -1, 0, 0, agent.PhaseOther
	w.deg = r.g.Degree(r.pos)
	if !r.abort {
		r.prog(w)
	}
	return
}

// flushWaitEvery bounds the deferred-wait accumulator: once the pending
// stretch reaches this many rounds it is flushed immediately, so programs
// that wait forever in bounded increments (agent.Sit) still reach the
// scheduler regularly rather than accumulating unboundedly without ever
// sending a request.
const flushWaitEvery = 1 << 22

func (w *world) Degree() int    { return w.deg }
func (w *world) EntryPort() int { return w.entry }
func (w *world) Clock() uint64  { return w.clock }

// SetPhase implements agent.PhaseTagger: subsequent requests are stamped
// with p for the session's wakeup histogram. Note a deferred wait is
// stamped with the phase current when it finally rides a request out, not
// when Wait was called — the histogram counts wakeups, and the wakeup
// belongs to the procedure that forced the interaction.
func (w *world) SetPhase(p agent.Phase) agent.Phase {
	prev := w.phase
	w.phase = p
	return prev
}

func (w *world) Move(port int) int {
	if port < 0 || port >= w.deg {
		panic(agent.ErrBadPort{Port: port, Degree: w.deg})
	}
	rq := request{kind: reqMove, port: port}
	if w.pendingWait > 0 {
		// Merge the pending wait and the move into one request: a
		// single-action script carrying the wait as its lead.
		buf := w.script(1)
		buf[0] = port
		rq = request{kind: reqScript, script: buf, rounds: w.pendingWait}
		w.pendingWait = 0
	}
	g := w.call(rq)
	w.deg, w.entry = g.degree, g.entry
	w.clock++
	return w.entry
}

func (w *world) Wait(rounds uint64) {
	if rounds == 0 {
		return
	}
	w.clock += rounds
	if w.pendingWait > ^uint64(0)-rounds {
		w.flushWait() // keep the accumulator exact across overflow
	}
	w.pendingWait += rounds
	if w.pendingWait >= flushWaitEvery {
		w.flushWait()
	}
}

// MoveSeq is the native batched script. Any pending deferred wait —
// however long — rides the script request as its lead, so the grant's
// percept slices line up with the caller's actions with nothing to slice
// off, and the scheduler consumes the wait in O(1).
func (w *world) MoveSeq(actions []int) (entries, degrees []int) {
	if len(actions) == 0 {
		return nil, nil
	}
	lead := w.pendingWait
	w.pendingWait = 0
	g := w.call(request{kind: reqScript, script: actions, rounds: lead})
	w.deg, w.entry = g.degree, g.entry
	w.clock += uint64(len(actions))
	return g.entries, g.degrees
}

// RunSeq is the native side-effects-only batched script (the optional
// fast path behind agent.RunSeq): same rounds and moves as the expanded
// reference form, no result streams, O(1) consumption of both in-script
// ScriptWait runs and SeqWait-encoded wait runs, and replayed copies of
// closed SeqRepeat blocks. A script of SeqRepeat actions alone runs no
// round, like its expansion, so it sends no request.
func (w *world) RunSeq(actions []int) {
	if !slices.ContainsFunc(actions, runsRound) {
		return
	}
	lead := w.pendingWait
	w.pendingWait = 0
	g := w.call(request{kind: reqScript, script: actions, rounds: lead, quiet: true})
	w.deg, w.entry = g.degree, g.entry
	w.clock += g.rounds
}

// runsRound reports whether a RunSeq script holding action a runs a
// round: every action but a SeqRepeat does.
func runsRound(a int) bool {
	_, repeat := agent.SeqRepeatCount(a)
	return !repeat
}

// script returns the world's reusable script-building buffer at length n.
func (w *world) script(n int) []int {
	if cap(w.scriptBuf) < n {
		w.scriptBuf = make([]int, n)
	}
	w.scriptBuf = w.scriptBuf[:n]
	return w.scriptBuf
}

// flushWait sends the accumulated deferred wait, if any, as the lead of
// an empty quiet script, and unwinds the program with stopSentinel if
// the run was aborted meanwhile.
func (w *world) flushWait() {
	if !w.flushWaitQuiet() {
		panic(stopSentinel{})
	}
}

// flushWaitQuiet is flushWait for the termination path: instead of
// panicking with stopSentinel when the run was aborted, it reports false.
func (w *world) flushWaitQuiet() bool {
	if w.pendingWait == 0 {
		return true
	}
	rq := request{kind: reqScript, rounds: w.pendingWait, quiet: true, phase: w.phase}
	w.pendingWait = 0
	return !w.r.abort && w.yield(rq) && !w.r.abort
}

// call hands one request to the scheduler and returns its grant: the
// coroutine parks in yield until the scheduler's next fetch resumes it.
// A resume with the abort flag set (release), or the pool's stop,
// unwinds the program with stopSentinel instead. While the program
// unwinds, a call (from a defer) sends nothing, as in flushWaitQuiet, so
// release's one resume ends the program.
func (w *world) call(rq request) grantMsg {
	rq.phase = w.phase
	if w.r.abort || !w.yield(rq) || w.r.abort {
		panic(stopSentinel{})
	}
	return w.r.grant
}
