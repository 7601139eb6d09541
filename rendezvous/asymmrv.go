package rendezvous

import (
	"fmt"

	"sync"

	"repro/agent"
	"repro/uxs"
	"repro/view"
)

// NewAsymmRV returns our substitute for the paper's AsymmRV(n) (the
// log-space polynomial algorithm of Czyzowicz, Kosowski & Pelc cited as
// Proposition 3.1) — substitution S2 of DESIGN.md.
//
// Each agent physically explores all paths of length <= n-1 from its start,
// reconstructing its truncated view (by Norris' theorem, depth n-1 views of
// nonsymmetric nodes differ), derives a canonical binary label from the
// view encoding, and then plays a block schedule: in slot k it is active
// (performs R consecutive UXS round trips, visiting every node and
// returning home) iff bit k of its label is 1, and otherwise passive
// (waits at home). Labels of nonsymmetric starts differ at some slot, and
// the slot length R*T_rt = (ceil(δ/T_rt)+2)*T_rt exceeds the schedule
// offset δ by at least two round trips, so the active agent completes a
// full round trip strictly inside the other's passive slot and walks over
// its home node — rendezvous.
//
// Unlike the cited algorithm, this one is parameterized by the hypothesized
// delay δ (and is exponential in the worst case); that suffices for
// UniversalRV, whose proof of Theorem 3.1 only relies on AsymmRV in the
// phase whose δ hypothesis is correct. The program runs for exactly
// AsymmRVTime(n, δ) rounds and ends at its start node.
func NewAsymmRV(n, delta uint64) (agent.Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("rendezvous: AsymmRV requires n >= 2, got %d", n)
	}
	if AsymmRVTime(n, delta) >= RoundCap {
		return nil, fmt.Errorf("rendezvous: AsymmRV(n=%d,δ=%d) duration saturates RoundCap", n, delta)
	}
	return func(w agent.World) { asymmRV(w, n, delta) }, nil
}

// rvScratch is the per-agent scratch of the whole phase pipeline: the
// flat tree slab the physical view walk builds into, the label encoding
// buffer, the per-size UXS walk scripts, and the enumeration buffers of
// Explore/SymmRV — all reused across sub-phases and (inside UniversalRV)
// across phases, so the steady-state walk-encode-schedule-explore loop
// allocates nothing. One value per program invocation, never shared
// across agents: everything in it is mutable state.
type rvScratch struct {
	tree view.Tree
	enc  []byte
	// rev is the reverse-path buffer shared by every UXS walk this agent
	// plays (the forward scripts are immutable and shared globally; only
	// the reverse path is per-agent state); trip backs the merged
	// round-trip chunk scripts.
	rev, trip []int
	// explore's per-iteration buffers (all of length d).
	expSeq, expDegs, expEntries, expRev []int
	// explore's merged-script buffer (reverse path + inter-iteration pad
	// + next forward walk, or the whole batched d=1 enumeration).
	expScript []int
	// symmRV's reverse-path buffer (length M+1).
	symEntries []int
	// viewWalkWith's planner state (the script being planned, the DFS stack,
	// the patch list awaiting a degree stream, and the full-walk record)
	// plus the per-(depth,budget) walk cache: every walk starts at the
	// agent's home node (all procedures return home), so the move script
	// and the tree it builds are identical every time a hypothesis
	// recurs — later phases replay the script percept-free and copy the
	// cached tree instead of re-planning.
	walkScript []int
	walkStack  []vwFrame
	walkPatch  []vwPatch
	walkRecord []int
	walkCache  map[walkKey]*walkRec
	// tripCache memoizes, per size hypothesis, the home cycle's period
	// for roundTrips (see uxsWalk.cache).
	tripCache map[uint64][]int
	// symCache memoizes, per size hypothesis, the degrees and entry
	// ports along SymmRV's walk R(u) from home (see symmWalk); symDegs
	// is the learning pass's recording buffer and symStream the replay's
	// chunk buffer. seedSymm marks programs that will actually run
	// SymmRV (the universal algorithms set it): only then does the
	// schedule's first UXS application copy its grant into the cache.
	symCache  map[uint64]symmWalk
	symDegs   []int
	symStream []int
	seedSymm  bool
}

// uxsWalkFor returns this agent's UXS walk for size hypothesis n: the
// globally cached forward script plus the scratch's reverse buffer. The
// walk also carries the scratch itself so that the grant of the first
// application at a new n can seed the SymmRV walk cache: R(u) is the
// same walk in both procedures.
func (s *rvScratch) uxsWalkFor(n uint64) uxsWalk {
	if s.tripCache == nil {
		s.tripCache = map[uint64][]int{}
	}
	return uxsWalk{fwd: uxsFwdFor(n), rev: &s.rev, chunk: &s.trip, n: n, cache: s.tripCache, scratch: s}
}

// scratchInts returns a length-n view of *buf, reallocating only when the
// capacity is insufficient. Contents are undefined.
func scratchInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// asymmRV is the internal body shared with UniversalRV; the convenience
// form allocates a fresh scratch.
func asymmRV(w agent.World, n, delta uint64) {
	var s rvScratch
	asymmRVWith(w, n, delta, &s)
}

// asymmRVWith is AsymmRV: the one sub-phase at depth n-1, the depth at
// which Norris' theorem separates the views of nonsymmetric nodes.
func asymmRVWith(w agent.World, n, delta uint64, s *rvScratch) {
	asymmSubPhase(w, n, n-1, delta, s)
}

// asymmSubPhase is one "view walk, then label schedule" step, AsymmRV's
// whole body and AsymmRVID's sub-phase D: it reconstructs the truncated
// view to depth by physical DFS, padded to the input-independent budget
// ViewWalkTimeDepth(n, depth), then plays the label's block schedule over
// EncodingBitBudgetDepth(n, depth) slots. The walk carries the budget as
// a hard cap: under a wrong (too small) hypothesis n the true path tree
// can be larger than the budget, and truncating the walk keeps the
// duration exact — which is what UniversalRV's phase synchrony requires;
// under a correct hypothesis the cap never binds. It runs for exactly
// asymmSubPhaseTime(n, depth, δ) rounds and ends at the start node. The
// scratch tree and label buffer are reused across sub-phases and phases.
func asymmSubPhase(w agent.World, n, depth, delta uint64, s *rvScratch) {
	// Wakeup attribution: everything outside the view walk is the
	// label-schedule machinery (the nested viewWalkWith re-tags and
	// restores around itself).
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseSchedule))
	budget := ViewWalkTimeDepth(n, depth)
	start := w.Clock()
	viewWalkWith(w, int(depth), budget, &s.tree, s)
	w.Wait(budget - (w.Clock() - start))

	s.enc = s.tree.AppendEncode(s.enc[:0])
	repeats := ActiveRepeats(n, delta)
	playSchedule(w, s.enc, EncodingBitBudgetDepth(n, depth), repeats, satMul(repeats, UXSRoundTrip(n)), s.uxsWalkFor(n))
}

// maxWalkScript caps one view-walk script submission (the buffers persist
// in the agent's scratch), and maxWalkCacheScript bounds the per-size
// cached walk record so degenerate hypotheses cannot pin huge scripts in
// the scratch for the rest of the program.
const (
	maxWalkScript      = 4096
	maxWalkCacheScript = 8192
)

// viewWalkWith physically explores every path of length <= depth from
// the current node by DFS with backtracking, and builds the truncated
// view it observed into t (replacing t's previous contents; a warm tree
// makes the walk allocation-free). It uses 2*(number of paths of length
// <= depth) rounds, never more than maxRounds, and ends where it started.
// The root's entry port is canonicalized to -1 so that the encoding
// depends only on the view, not on how the agent arrived at its current
// node.
//
// The move sequence is the textbook DFS, but it reaches the simulator as
// batched scripts: the only percept the walk needs is each first-visited
// node's degree, and MoveSeq streams those with the grant, so the
// planner speculatively extends each script deep into unvisited
// territory — descending the port-0 chain of every fresh node down to
// the truncation depth, a move that exists at every node of a connected
// graph — and only stops (re-plans) where the next decision, a port
// enumeration bound at a node first visited inside the very script being
// built, genuinely depends on a degree still in flight. The grant's
// degree stream is then ingested directly into the flat tree slab. The
// moves, their order and the 2-rounds-per-path accounting are exactly
// those of the per-node walk; only the script boundaries differ.
//
// The planner state and walk cache are threaded through the agent's
// scratch s. Walks always start at the agent's home node (every
// rendezvous procedure returns home), so a (depth, budget) pair fully
// determines the walk on a fixed graph: the first walk records its move
// script and tree, and every later walk at the same key replays the
// script in percept-free chunks — one scheduler wakeup per chunk instead
// of one per re-plan — and copies the cached tree.
func viewWalkWith(w agent.World, depth int, maxRounds uint64, t *view.Tree, s *rvScratch) {
	defer agent.SetPhase(w, agent.SetPhase(w, agent.PhaseViewWalk))
	key := walkKey{depth: depth, budget: maxRounds}
	if rec, ok := s.walkCache[key]; ok {
		t.CopyFrom(&rec.tree)
		for off := 0; off < len(rec.script); off += maxWalkScript {
			end := off + maxWalkScript
			if end > len(rec.script) {
				end = len(rec.script)
			}
			agent.RunSeq(w, rec.script[off:end])
		}
		return
	}
	t.Reset()
	vw := viewWalker{
		w: w, t: t, remaining: maxRounds,
		script: s.walkScript[:0], stack: s.walkStack[:0],
		patch: s.walkPatch[:0], record: s.walkRecord[:0],
	}
	root := t.NewNode(int32(w.Degree()), -1)
	if depth > 0 {
		t.Expand(root)
		vw.run(root, depth)
	}
	if len(vw.record) <= maxWalkCacheScript {
		if s.walkCache == nil {
			s.walkCache = map[walkKey]*walkRec{}
		}
		rec := &walkRec{script: append([]int(nil), vw.record...)}
		rec.tree.CopyFrom(t)
		s.walkCache[key] = rec
	}
	s.walkScript = vw.script[:0]
	s.walkStack = vw.stack[:0]
	s.walkPatch = vw.patch[:0]
	s.walkRecord = vw.record[:0]
}

// walkKey identifies one deterministic view walk from the agent's home
// node; walkRec caches its full move script and the tree it built.
type walkKey struct {
	depth  int
	budget uint64
}

type walkRec struct {
	script []int
	tree   view.Tree
}

// viewWalker is the speculative DFS planner. It simulates the walk over
// the tree built so far, appending actions to script; nodes first visited
// by the pending (unsubmitted) script are "fresh" — their degree and
// entry port are still in flight and arrive with the grant, recorded via
// the patch list. Planning stops only where a decision needs a fresh
// degree; everything else — port enumeration at known nodes, port-0
// descents through fresh territory, backtracks (absolute entry ports at
// known nodes, Rel(0) immediately after a fresh first visit) — extends
// the current script.
type viewWalker struct {
	w         agent.World
	t         *view.Tree
	remaining uint64
	script    []int     // actions of the script being planned
	stack     []vwFrame // explicit DFS stack
	patch     []vwPatch // fresh first visits awaiting the degree stream
	record    []int     // full move sequence across all submissions
}

// vwFrame is one level of the planner's DFS stack.
type vwFrame struct {
	id    int32 // tree node
	port  int   // next port to enumerate
	depth int   // levels remaining below this node
	fresh bool  // first visited by the pending script
}

// vwPatch links a fresh first-visit to its action index in the pending
// script: the grant's streams fill the node's degree and entry port, exp
// marks nodes to Expand once the degree is known (depth > 0), and parent
// >= 0 defers the kid-slot link of a fresh parent (whose arena slots do
// not exist until its own patch runs, earlier in the list).
type vwPatch struct {
	id     int32
	at     int
	exp    bool
	parent int32
	port   int
}

func (vw *viewWalker) run(root int32, depth int) {
	vw.stack = append(vw.stack, vwFrame{id: root, depth: depth})
	for len(vw.stack) > 0 {
		if len(vw.script) >= maxWalkScript {
			vw.submit()
		}
		f := &vw.stack[len(vw.stack)-1]
		if f.depth == 0 {
			vw.pop()
			continue
		}
		if f.fresh {
			if f.port == 0 && vw.remaining >= 2 {
				vw.descend(f) // speculative port-0 chain into fresh territory
				continue
			}
			if f.port == 0 {
				// Budget exhausted before any child: frontier marks only.
				vw.pop()
				continue
			}
			// The enumeration bound is this node's degree, which is still
			// in the pending script's grant: submit and re-plan.
			vw.submit()
			continue
		}
		if deg := int(vw.t.At(f.id).Deg); f.port < deg && vw.remaining >= 2 {
			vw.descend(f)
			continue
		}
		vw.pop()
	}
	vw.submit()
}

// descend plans the forward move through f's next port into a new tree
// node (2 rounds charged up front: the move and its eventual backtrack,
// exactly the old per-node walk's accounting).
func (vw *viewWalker) descend(f *vwFrame) {
	vw.remaining -= 2
	p := f.port
	f.port++
	fresh, id, d := f.fresh, f.id, f.depth-1
	vw.script = append(vw.script, p)
	kid := vw.t.NewNode(-1, -1) // degree and entry arrive with the grant
	pc := vwPatch{id: kid, at: len(vw.script) - 1, exp: d > 0, parent: -1}
	if fresh {
		pc.parent, pc.port = id, p // parent's kid slots exist after its patch
	} else {
		vw.t.SetKid(id, p, kid)
	}
	vw.patch = append(vw.patch, pc)
	vw.stack = append(vw.stack, vwFrame{id: kid, depth: d, fresh: true})
}

// pop plans the backtrack out of the finished top frame. A fresh node is
// only ever popped immediately after its first-visit move (leaf depth or
// budget stop), where Rel(0) — back through the entry port — is exact; a
// known node's entry port is in the tree.
func (vw *viewWalker) pop() {
	f := vw.stack[len(vw.stack)-1]
	vw.stack = vw.stack[:len(vw.stack)-1]
	if len(vw.stack) == 0 {
		return // the root: the walk is over, no backtrack
	}
	if f.fresh {
		vw.script = append(vw.script, agent.Rel(0))
	} else {
		vw.script = append(vw.script, int(vw.t.At(f.id).EntryPort))
	}
}

// submit plays the pending script as one grant and ingests the percept
// streams into the tree slab: every fresh node's degree and entry port,
// its kid-slot arena (once the degree is known), and any deferred parent
// links.
func (vw *viewWalker) submit() {
	if len(vw.script) == 0 {
		return
	}
	entries, degs := vw.w.MoveSeq(vw.script)
	for _, pc := range vw.patch {
		vw.t.SetInfo(pc.id, int32(degs[pc.at]), int32(entries[pc.at]))
		if pc.exp {
			vw.t.Expand(pc.id)
		}
		if pc.parent >= 0 {
			vw.t.SetKid(pc.parent, pc.port, pc.id)
		}
	}
	for i := range vw.stack {
		vw.stack[i].fresh = false
	}
	// Record for the walk cache — but stop accumulating once past the
	// cache bound (a record that overran it is never cached, so there is
	// no point holding a giant script in the scratch for walks that big).
	if len(vw.record) <= maxWalkCacheScript {
		vw.record = append(vw.record, vw.script...)
	}
	vw.script = vw.script[:0]
	vw.patch = vw.patch[:0]
}

// uxsWalk holds the batched script of one UXS application — port 0 out of
// the start node, then every term entry-relative (the UXS application
// rule, which agent.Rel encodes verbatim) — plus a pointer to the
// caller-owned reverse-path buffer. The forward script is immutable and
// may be shared across agents (uxsFwdFor memoizes one per size); the rev
// buffer is mutable per-agent state and must never be shared.
type uxsWalk struct {
	fwd []int
	rev *[]int
	// chunk backs the percept-free merged-trip scripts of roundTrips
	// (distinct from rev, which holds the period being repeated).
	chunk *[]int
	// n and cache, when set, memoize the home cycle's period (reverse
	// path + forward application) per size hypothesis: every roundTrips
	// call of one program starts at the agent's home node, so the cycle's
	// entry ports never change for a given n and later calls skip the
	// learning trip entirely.
	n     uint64
	cache map[uint64][]int
	// scratch, when set, lets the learning trip seed the agent's SymmRV
	// walk cache (see seedSymmWalk): the forward application IS the walk
	// R(u) that SymmRV(n, 1, δ) later follows node by node, so its grant's
	// percept streams replace SymmRV's whole one-wakeup-per-node learning
	// pass.
	scratch *rvScratch
}

// seedSymmWalk converts the grant of one forward application (played
// from home) into the SymmRV walk cache entry for this size, unless the
// agent already has one or keeps none: degs[i] is the degree of walk
// node u_i and entries[i-1] the port entering u_i — exactly what
// symmRVWith's own learning pass would have recorded.
func (u uxsWalk) seedSymmWalk(entries, degrees []int, homeDeg int) {
	if u.scratch == nil || !u.scratch.seedSymm {
		return
	}
	if _, ok := u.scratch.symCache[u.n]; ok {
		return
	}
	degs := make([]int, len(degrees)+1)
	degs[0] = homeDeg
	copy(degs[1:], degrees)
	if u.scratch.symCache == nil {
		u.scratch.symCache = map[uint64]symmWalk{}
	}
	u.scratch.symCache[u.n] = symmWalk{
		degs:    degs,
		entries: append([]int(nil), entries...),
	}
}

// buildUXSFwd renders the batched forward script of one UXS application.
func buildUXSFwd(y uxs.Sequence) []int {
	fwd := make([]int, len(y)+1)
	fwd[0] = 0
	for i, a := range y {
		fwd[i+1] = agent.Rel(a)
	}
	return fwd
}

// uxsFwdFor memoizes the forward script per size hypothesis, mirroring
// uxs.Generate's own memo: UniversalRV revisits every n infinitely often,
// and rebuilding the script each phase was a dominant allocator.
var (
	uxsFwdMu    sync.Mutex
	uxsFwdCache = map[uint64][]int{}
)

func uxsFwdFor(n uint64) []int {
	uxsFwdMu.Lock()
	defer uxsFwdMu.Unlock()
	if f, ok := uxsFwdCache[n]; ok {
		return f
	}
	f := buildUXSFwd(uxs.Generate(int(n)))
	uxsFwdCache[n] = f
	return f
}

// newUXSWalk builds a standalone walk owning its reverse buffer — the
// form the baselines (one walk per program) and tests use.
func newUXSWalk(y uxs.Sequence) uxsWalk {
	return uxsWalk{fwd: buildUXSFwd(y), rev: new([]int), chunk: new([]int), cache: map[uint64][]int{}}
}

// firstApplication plays one forward UXS application; its grant's
// percept streams seed this agent's SymmRV walk cache for the size when
// it has none yet.
func (u uxsWalk) firstApplication(w agent.World) []int {
	homeDeg := w.Degree()
	entries, degrees := w.MoveSeq(u.fwd)
	u.seedSymmWalk(entries, degrees, homeDeg)
	return entries
}

// maxTripScript caps one merged round-trip script: the rounds of a
// roundTrips script, the actions of a schedule stream's chunk (the
// buffers persist in the walk's chunk scratch).
const maxTripScript = 8192

// roundTrips performs count consecutive round trips as merged scripts.
// The first forward application learns the cycle's entry ports; every
// later trip retraces the exact same closed walk (same start node, same
// script, deterministic graph), so the whole remainder — reverse path,
// next application, reverse path, ... — is known in advance and is
// submitted in percept-free scripts of up to maxTripScript rounds, each
// one SeqRepeat block of the period. The scheduler wakes the agent
// O(count·len/maxTripScript) times instead of 2·count and walks only
// the first copy of each block; the move sequence (and hence every
// per-round position) is identical to count single round trips: one
// forward application, then the reverse path home.
func (u uxsWalk) roundTrips(w agent.World, count uint64) {
	if count == 0 {
		return
	}
	l := len(u.fwd)
	if u.cache != nil && 2*l <= maxTripScript {
		if period, ok := u.cache[u.n]; ok {
			// The whole walk is known in advance: fwd, then (count-1)
			// periods of [rev fwd], then the final rev — all chunked.
			u.playKnown(w, period, count)
			return
		}
	}
	entries := u.firstApplication(w)
	if count == 1 || 2*l > maxTripScript {
		// Degenerate sizes: per-trip submission, reverse then forward.
		for i := uint64(1); i < count; i++ {
			script := scratchInts(u.rev, 2*l)
			for a, b := 0, l-1; b >= 0; a, b = a+1, b-1 {
				script[a] = entries[b]
			}
			copy(script[l:], u.fwd)
			entries, _ = w.MoveSeq(script)
			entries = entries[l:]
		}
		rev := scratchInts(u.rev, l)
		for a, b := 0, l-1; b >= 0; a, b = a+1, b-1 {
			rev[a] = entries[b]
		}
		agent.RunSeq(w, rev)
		return
	}
	// One period of the cycle beyond the first application: the reverse
	// path home followed by the next forward application. The remainder
	// of the walk is (count-1) periods plus one final reverse path.
	period := scratchInts(u.rev, 2*l)
	for a, b := 0, l-1; b >= 0; a, b = a+1, b-1 {
		period[a] = entries[b]
	}
	copy(period[l:], u.fwd)
	if u.cache != nil {
		u.cache[u.n] = append(make([]int, 0, 2*l), period...)
	}
	u.playPeriods(w, period, count-1, true)
}

// playKnown plays a full count-trip walk whose home-cycle period is
// already cached, with no percepts at all: fwd ++ [rev fwd]^(count-1) ++
// rev is count repetitions of [fwd rev], which is the period rotated by
// half — built once and played as repeat blocks.
func (u uxsWalk) playKnown(w agent.World, period []int, count uint64) {
	l := len(u.fwd)
	rot := scratchInts(u.rev, 2*l)
	copy(rot, period[l:])
	copy(rot[l:], period[:l])
	u.playPeriods(w, rot, count, false)
}

// playPeriods plays reps repetitions of the given period as percept-free
// scripts of up to maxTripScript actions' worth, each one SeqRepeat
// block of the chunk's whole periods; withTail appends the period's
// first half once more at the very end (the final reverse path of an
// unrotated walk), after a SeqRepeat(1) that closes the block.
func (u uxsWalk) playPeriods(w agent.World, period []int, reps uint64, withTail bool) {
	l2 := len(period)
	perChunk := uint64(max(maxTripScript/l2, 1)) // whole periods per script
	for reps > 0 {
		c := min(reps, perChunk)
		script := append(append((*u.chunk)[:0], agent.SeqRepeat(c)), period...)
		if c == reps && withTail {
			script = append(append(script, agent.SeqRepeat(1)), period[:l2/2]...)
		}
		*u.chunk = script
		agent.RunSeq(w, script)
		reps -= c
	}
}
