package sim

import (
	"fmt"

	"repro/agent"
	"repro/graph"
)

// Outcome classifies how a run ended.
type Outcome int

const (
	// Met means the agents occupied the same node in the same round.
	Met Outcome = iota
	// BudgetExhausted means the round budget ran out first.
	BudgetExhausted
	// NeverMeet means both programs terminated at different nodes, so no
	// future meeting is possible.
	NeverMeet
)

func (o Outcome) String() string {
	switch o {
	case Met:
		return "met"
	case BudgetExhausted:
		return "budget-exhausted"
	case NeverMeet:
		return "never-meet"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Result reports a finished run.
type Result struct {
	Outcome      Outcome
	MeetingNode  int    // valid when Outcome == Met
	MeetingRound uint64 // absolute round of the meeting (0 = earlier start)
	// TimeFromLater is the paper's cost measure: rounds between the
	// appearance of the later agent and the meeting.
	TimeFromLater  uint64
	Rounds         uint64 // absolute rounds elapsed when the run stopped
	MovesA, MovesB uint64 // edge traversals actually performed
}

// Config tunes a run.
type Config struct {
	// Budget is the maximum number of absolute rounds to simulate.
	// Zero selects DefaultBudget.
	Budget uint64
	// Observer, when non-nil, is called once per simulated round with the
	// positions at that round (posB == -1 before the later agent appears).
	// Setting an observer disables wait fast-forwarding, so only use it
	// with small budgets.
	Observer func(round uint64, posA, posB int)
}

// DefaultBudget is the round budget used when Config.Budget is zero.
const DefaultBudget = 1 << 32

// Run executes the same program for both agents — the paper's model of
// identical deterministic anonymous agents — from starts u and v, with the
// later agent appearing delay rounds after the earlier one.
func Run(g *graph.Graph, prog agent.Program, u, v int, delay uint64, cfg Config) Result {
	return RunPrograms(g, prog, prog, u, v, delay, cfg)
}

// RunPrograms executes possibly different programs for the two agents;
// used by the oracle baselines (e.g. wait-for-Mommy, where leader election
// is assumed already done). It creates and discards a one-shot runner
// session; callers with many runs should reuse one Session (in sweeps,
// via Scratch.Session).
func RunPrograms(g *graph.Graph, progA, progB agent.Program, u, v int, delay uint64, cfg Config) Result {
	var s Session
	defer s.Close()
	return s.RunPrograms(g, progA, progB, u, v, delay, cfg)
}

// RunPrograms is the session-pooled form of the package-level
// RunPrograms: the scheduler loop with two agents, the later one
// appearing at delay, stopped by their meeting. An observer makes it
// step one round at a time.
func (s *Session) RunPrograms(g *graph.Graph, progA, progB agent.Program, u, v int, delay uint64, cfg Config) Result {
	m := &s.run
	m.pair.agents = [2]MultiAgent{{Program: progA, Start: u}, {Program: progB, Start: v, Appear: delay}}
	m.begin(s, g, m.pair.agents[:], MultiConfig{Budget: cfg.Budget, StopOnFirstMeeting: true}, cfg.Observer)
	defer m.end(runKindPair)
	m.loop()
	res := Result{Outcome: BudgetExhausted, Rounds: m.t, MovesA: m.runners[0].moves}
	if rb := m.runners[1]; rb != nil {
		res.MovesB = rb.moves
	}
	switch {
	case len(m.res.Meetings) > 0:
		mt := m.res.Meetings[0]
		res.Outcome, res.MeetingNode, res.MeetingRound, res.TimeFromLater = Met, mt.Node, mt.Round, mt.Round-delay
	case m.ended == 2:
		res.Outcome = NeverMeet
	}
	return res
}

// runState is one run's scheduler state. A Session keeps one and reuses
// it, slices included, from run to run; a run of at most two agents
// keeps its slices in pair, so that a fresh Session's run allocates no
// scheduler state.
type runState struct {
	s        *Session
	g        *graph.Graph
	agents   []MultiAgent
	cfg      MultiConfig
	observer func(round uint64, posA, posB int) // two agents only

	runners   []*runner // by agent index, nil until the agent appears
	active    []*runner // the present runners, in agent order
	activeIdx []int     // the agent index of each active runner
	moved     []bool    // the active runners that moved on the last round
	met       []bool    // met[i*k+j]: pair (i, j) already met
	w         watch     // what the next burst stops for

	res        MultiResult // Meetings in a reused buffer, Rounds and Moves unset
	t          uint64
	absent     int    // agents yet to appear
	nextAppear uint64 // the earliest round an absent agent appears
	unmet      int    // pairs yet to meet
	ended      int    // agents whose program ended

	pair struct {
		agents          [2]MultiAgent
		runners, active [2]*runner
		idx             [2]int
		moved           [2]bool
		met             [4]bool
		meetings        [1]Meeting
	}
}

// begin resets the run state for a run of agents on g.
func (m *runState) begin(s *Session, g *graph.Graph, agents []MultiAgent, cfg MultiConfig, observer func(uint64, int, int)) {
	k := len(agents)
	if cap(m.runners) < k {
		if p := &m.pair; k <= len(p.runners) {
			m.runners, m.active, m.activeIdx, m.moved = p.runners[:], p.active[:], p.idx[:], p.moved[:]
			m.met, m.res.Meetings = p.met[:], p.meetings[:]
		} else {
			m.runners, m.active, m.activeIdx, m.moved = make([]*runner, k), make([]*runner, k), make([]int, k), make([]bool, k)
			m.met, m.res.Meetings = make([]bool, k*k), make([]Meeting, k*(k-1)/2)
		}
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	m.s, m.g, m.agents, m.cfg, m.observer = s, g, agents, cfg, observer
	m.runners, m.met, m.moved = m.runners[:k], m.met[:k*k], m.moved[:k]
	clear(m.runners)
	clear(m.met)
	m.res = MultiResult{Meetings: m.res.Meetings[:0]}
	m.t, m.absent, m.nextAppear, m.unmet, m.ended = 0, k, 0, k*(k-1)/2, 0
	s.resetStats()
}

// end publishes the run's statistics and returns its runners to the
// session's pool.
func (m *runState) end(kind int) {
	publishRunStats(&m.s.stats, kind)
	for i, r := range m.runners {
		if r != nil {
			m.s.release(r)
			m.runners[i] = nil
		}
	}
	m.agents, m.pair.agents, m.observer = nil, [2]MultiAgent{}, nil
}

// loop runs the scheduler from round 0 to the run's end. Each iteration
// starts the agents due to appear and pulls a request from every agent
// that finished its last action, the only resumes of a program; then it
// steps to the next event: one burst, bounded by the budget and the next
// appearance, or, when a single move is pending or an observer watches,
// one round of every agent. A meeting the step ends on is recorded at
// once, before any request of that round is pulled; on an appearance
// round, only after the new agents appear.
func (m *runState) loop() {
	for {
		appeared := m.absent > 0 && m.t >= m.nextAppear
		if appeared {
			m.appear()
		}
		m.pull()
		if appeared {
			if m.observer != nil {
				m.observe()
			}
			if m.detect(nil) {
				return
			}
		}
		if m.ended == len(m.agents) || m.t >= m.cfg.Budget {
			return
		}
		steps, hit := uint64(0), true
		if m.observer == nil {
			steps, hit = burst(m.active, min(m.cfg.Budget, m.nextAppear)-m.t, m.moved, &m.w)
		}
		if steps == 0 {
			for a, r := range m.active {
				m.moved[a] = r.roundsUntilMove() == 0
				r.advance(1)
			}
			steps, hit = 1, true
		}
		if m.t += steps; m.absent > 0 && m.t == m.nextAppear {
			continue
		}
		if m.observer != nil {
			m.observe()
		}
		if hit && m.detect(m.moved) {
			return
		}
	}
}

// appear starts every absent agent due by round t, then rebuilds the
// active set and the watch.
func (m *runState) appear() {
	m.nextAppear = ^uint64(0)
	for i, a := range m.agents {
		switch {
		case m.runners[i] != nil:
		case a.Appear <= m.t:
			m.runners[i] = m.s.acquire(m.g, a.Program, a.Start)
			m.absent--
		default:
			m.nextAppear = min(m.nextAppear, a.Appear)
		}
	}
	m.active, m.activeIdx = m.active[:0], m.activeIdx[:0]
	for i, r := range m.runners {
		if r != nil {
			m.active = append(m.active, r)
			m.activeIdx = append(m.activeIdx, i)
		}
	}
	m.w = m.watch()
}

// pull resumes every present agent that finished its last action, up to
// its next request, and counts the programs that ended.
func (m *runState) pull() {
	for _, r := range m.active {
		if r.state == stNeedReq {
			if r.fetch(); r.state == stDone {
				m.ended++
			}
		}
	}
}

// observe hands round t's positions to the observer; the later agent's
// is -1 before it appears.
func (m *runState) observe() {
	posB := -1
	if rb := m.runners[1]; rb != nil {
		posB = rb.pos
	}
	m.observer(m.t, m.runners[0].pos, posB)
}

// detect records the first meeting of every co-located pair at round t
// and the first gathering, scanning the active set (index-sorted by
// construction) in (i, j) order, and reports whether a stop condition
// fired. moved, when non-nil, restricts the scan to pairs with a member
// that moved on round t: a pair of stationary agents cannot newly
// co-locate, and gathering can only begin on a round somebody moved (or
// one somebody appeared, which passes nil for a full scan).
func (m *runState) detect(moved []bool) bool {
	active, activeIdx, met, k := m.active, m.activeIdx, m.met, len(m.agents)
	coloc, recorded := false, false
	for a := 0; a < len(active); a++ {
		pi := active[a].pos
		i := activeIdx[a]
		aMoved := moved == nil || moved[a]
		for b := a + 1; b < len(active); b++ {
			if !aMoved && !moved[b] || active[b].pos != pi {
				continue
			}
			coloc = true
			if met[i*k+activeIdx[b]] {
				continue
			}
			met[i*k+activeIdx[b]] = true
			m.unmet--
			m.res.Meetings = append(m.res.Meetings, Meeting{A: i, B: activeIdx[b], Node: pi, Round: m.t})
			recorded = true
		}
	}
	if (coloc || k == 1) && m.absent == 0 && !m.res.Gathered {
		runners := m.runners
		gathered := true
		for i := 1; i < k; i++ {
			if runners[i].pos != runners[0].pos {
				gathered = false
				break
			}
		}
		if gathered {
			m.res.Gathered, m.res.GatherNode, m.res.GatherRound = true, runners[0].pos, m.t
			recorded = true
		}
	}
	if recorded {
		m.w = m.watch()
	}
	return m.res.Gathered && m.cfg.StopOnGather || m.cfg.StopOnFirstMeeting && len(m.res.Meetings) > 0
}

// watch is what a burst must stop for: a co-location of a pair that has
// not met, then — once every pair has — only the first gathering, then
// nothing.
func (m *runState) watch() watch {
	if m.unmet > 0 {
		return watch{met: m.met, idx: m.activeIdx, k: len(m.agents)}
	}
	gather := !m.res.Gathered && m.absent == 0
	return watch{gather: gather, off: !gather}
}

// burstChunk bounds how many rounds each walker walks between
// co-location scans — the size of a runner's position log. Chunks with
// a walker start at burstFirst rounds and double, so a walker walks at
// most as far past a burst's end as the burst had already run.
const (
	burstFirst = 16
	burstChunk = 128
)

// watch names the co-locations that end a burst.
type watch struct {
	off    bool   // nothing left to detect
	gather bool   // only every runner on one node (all pairs have met)
	met    []bool // pairs that already met, met[idx[a]*k+idx[b]]
	idx    []int  // agent index of each runner
	k      int    // agent count, met's row length
}

// burst is the scheduler loop's scripted-step kernel. It runs the present
// runners rs (in agent order) through at most n rounds without resuming
// any program. Every runner whose cursor is on a script action walks —
// see walk — as long as one of them is on a move; a runner replaying a
// closed block copy (see blockRecord) copies its nodes from the record
// instead. Every other runner is held in place: n shrinks to its
// roundsUntilMove, and it is advanced once, by the rounds run, before
// burst returns, so a grant it earned on the last round is pending for
// the next fetch or for release. The burst also ends after the round on
// which a walker's segment ends — its script's end, or an escape after
// the last copy of a block — and after the first round that ends on a
// co-location w watches for (a pair with a walker in it, unless w says
// otherwise). It returns the rounds run, whether the last one ended on
// such a co-location, and in moved which runners moved on it. With no
// runner on a move it is the bulk skip of a stretch where nobody moves;
// it runs nothing when a runner has a single move pending, which the
// caller steps itself.
func burst(rs []*runner, n uint64, moved []bool, w *watch) (steps uint64, hit bool) {
	movers, quiet := 0, n
	for i, r := range rs {
		q := r.roundsUntilMove()
		if r.state == stMovePending {
			return 0, false
		}
		quiet = min(quiet, q)
		if moved[i] = r.state == stScript && r.scriptLead == 0; moved[i] {
			n = min(n, r.runLeft())
			if q == 0 {
				movers++
			}
		} else {
			n = min(n, q)
		}
	}
	if movers == 0 {
		for i, r := range rs {
			moved[i] = false
			r.advance(quiet)
		}
		return quiet, false
	}
	filled := 0
	for size := burstFirst; !hit && steps < n; size = min(2*size, burstChunk) {
		// A walker's chunk ends with its copy: the cursor wraps between
		// chunks, and a copy being recorded closes on its last round.
		// Replaying runs no further than the chunk, so a chunk with no
		// walker is a whole log.
		c := int(min(n-steps, burstChunk))
		for i, r := range rs {
			if moved[i] {
				if r.wrap(); !r.replaying {
					c = min(c, size, r.segEnd-r.scriptAt)
				}
			}
		}
		var odd *runner // walkers go two at a time
		for i, r := range rs {
			switch {
			case !moved[i]:
			case r.replaying:
				if !w.off {
					r.replay(c)
				}
			case odd == nil:
				odd = r
			default:
				walk(odd, r, c)
				odd = nil
			}
		}
		if odd != nil {
			walk(odd, nil, c)
		}
		if !w.off && c > filled {
			// A held runner's log is its fixed node, so one scan covers
			// all.
			for i, r := range rs {
				if !moved[i] {
					for j := filled; j < c; j++ {
						r.log[j] = r.pos
					}
				}
			}
			filled = c
		}
		if f := w.scan(rs, moved, c); f < c {
			c, hit = f+1, true
		}
		for i, r := range rs {
			switch {
			case !moved[i]:
			case r.replaying:
				r.replayed(c)
			default:
				if r.walkedN > c {
					r.rewind(c)
				}
				if r.rec.state == recWalking {
					r.record(c)
				}
			}
		}
		steps += uint64(c)
	}
	for i, r := range rs {
		if moved[i] {
			moved[i] = r.script[r.scriptAt-1] != agent.ScriptWait
			r.settle()
		} else {
			r.advance(steps)
		}
	}
	return steps, hit
}

// step is the scripted move itself: action x at node pos, entered by
// port entry, resolves through agent.ActionPort and the successor lookup
// in one adjacency-row access. It returns the node and entry port after.
func step(g *graph.Graph, x, pos, entry int) (int, int) {
	adj := g.Adj(pos)
	p, _ := agent.ActionPort(x, entry, len(adj))
	return adj[p].To, adj[p].ToPort
}

// walk moves a, and b in lock-step when non-nil, through their next c
// script actions, all inside their current segments, with cursors,
// positions and entries in locals, logging each round's node: a move
// steps, a ScriptWait stays put. Two chains in flight keep the core busy
// while the other waits on its adjacency loads.
func walk(a, b *runner, c int) {
	g, xa, ea, la, pa, na := a.walkFrom(c)
	wa, wb := 0, 0 // ScriptWaits walked
	if b == nil {
		for j, x := range xa {
			if x != agent.ScriptWait {
				pa, na = step(g, x, pa, na)
			} else {
				wa++
			}
			ea[j], la[j] = na, pa
		}
		a.walked(c, wa, pa, na)
		return
	}
	_, xb, eb, lb, pb, nb := b.walkFrom(c)
	for j, x := range xa {
		if x != agent.ScriptWait {
			pa, na = step(g, x, pa, na)
		} else {
			wa++
		}
		if y := xb[j]; y != agent.ScriptWait {
			pb, nb = step(g, y, pb, nb)
		} else {
			wb++
		}
		ea[j], la[j] = na, pa
		eb[j], lb[j] = nb, pb
	}
	a.walked(c, wa, pa, na)
	b.walked(c, wb, pb, nb)
}

// walkFrom hands walk r's next c actions, their entry slots, its position
// log, position and entry.
func (r *runner) walkFrom(c int) (g *graph.Graph, acts, ents, log []int, pos, entry int) {
	at := r.scriptAt
	return r.g, r.script[at : at+c], r.scriptEntries[at : at+c], r.log[:c], r.pos, r.entry
}

// walked stores a walk of j rounds, waits of them ScriptWaits, back into
// r and fills the degree stream of a MoveSeq script (the node's degree
// after each action).
func (r *runner) walked(j, waits, pos, entry int) {
	at := r.scriptAt
	if !r.scriptQuiet {
		for i, p := range r.log[:j] {
			r.scriptDegs[at+i] = r.g.Degree(p)
		}
	}
	r.moves += uint64(j - waits)
	r.scriptAt, r.pos, r.entry = at+j, pos, entry
	r.scriptWaitRun = 0
	r.walkedN = j
}

// record stores the nodes of the c rounds a walker just kept of the
// block copy it records, and closes the record on the copy's last round.
func (r *runner) record(c int) {
	copy(r.rec.pos[r.scriptAt-c-r.blockStart:], r.log[:c])
	if r.scriptAt == r.segEnd {
		r.closeCopy()
	}
}

// rewind takes back the actions walk ran past round c of its chunk
// (c >= 1). Their entries are rewritten when the actions run again.
func (r *runner) rewind(c int) {
	for ; r.walkedN > c; r.walkedN-- {
		r.scriptAt--
		if r.script[r.scriptAt] != agent.ScriptWait {
			r.moves--
		}
	}
	r.pos, r.entry = r.log[c-1], r.scriptEntries[r.scriptAt-1]
}

// replay logs the nodes of the next c rounds of a replaying block from
// its record, across copy boundaries.
func (r *runner) replay(c int) {
	p := r.scriptAt - r.blockStart
	for j := 0; j < c; p = 0 {
		j += copy(r.log[j:c], r.rec.pos[p:])
	}
}

// replayed advances a replaying runner through c rounds of its block:
// cursor, copies, moves, node and entry, all from the record. The
// cursor stops at a copy's end rather than wrap past it.
func (r *runner) replayed(c int) {
	rc := &r.rec
	l, p := len(rc.acts), r.scriptAt-r.blockStart
	e, last := p+c, (p+c-1)%l
	r.moves += uint64(e/l)*rc.moves[l] + rc.moves[e%l] - rc.moves[p]
	r.pos, r.entry = rc.pos[last], rc.ent[last]
	r.copiesLeft -= uint64((e - 1) / l)
	r.scriptAt = r.blockStart + last + 1
	r.scriptWaitRun = 0
	r.stats.replayed += uint64(c)
}

// scan returns the first of the chunk's c rounds that ends on a
// co-location w watches for, or c.
func (w *watch) scan(rs []*runner, moved []bool, c int) int {
	switch {
	case w.off:
		return c
	case w.gather:
		// Scan the first pair tightly; a round where it meets is a
		// gathering when every other runner is there too. (One agent
		// gathers on appearing, before any burst.)
		l0, l1 := rs[0].log[:c], rs[1].log[:c]
		for j := range l0 {
			if l0[j] != l1[j] {
				continue
			}
			all := true
			for _, r := range rs[2:] {
				all = all && r.log[j] == l0[j]
			}
			if all {
				return j
			}
		}
		return c
	}
	best := c
	for a := range rs {
		for b := a + 1; b < len(rs); b++ {
			if !moved[a] && !moved[b] || w.met[w.idx[a]*w.k+w.idx[b]] {
				continue
			}
			la, lb := rs[a].log[:best], rs[b].log[:best]
			for j := range la {
				if la[j] == lb[j] {
					best = j
					break
				}
			}
		}
	}
	return best
}
