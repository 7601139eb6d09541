package sim

import (
	"fmt"

	"repro/agent"
	"repro/graph"
)

// MultiAgent describes one agent of a multi-agent run: its program, start
// node, and appearance round (the paper's model generalized from two
// agents to the gathering setting of its related work [25]).
type MultiAgent struct {
	Program agent.Program
	Start   int
	Appear  uint64
}

// Meeting records two agents occupying the same node in the same round.
type Meeting struct {
	A, B  int // agent indices, A < B
	Node  int
	Round uint64
}

// MultiResult reports a finished multi-agent run.
type MultiResult struct {
	// Gathered is true when all agents occupied one node simultaneously
	// at some round of the run; GatherNode and GatherRound record the
	// first such round.
	Gathered    bool
	GatherNode  int
	GatherRound uint64
	// Meetings lists the first meeting of every pair that met. The order
	// is fully deterministic: ascending by meeting round, and within one
	// round by (A, B) lexicographically — the order of the scheduler's
	// pairwise scan. The round-by-round reference engine the differential
	// tests keep produces byte-identical Meetings slices.
	Meetings []Meeting
	Rounds   uint64
	Moves    []uint64 // per-agent edge traversals
}

// MultiConfig tunes a multi-agent run.
type MultiConfig struct {
	// Budget is the maximum absolute round count (0 = DefaultBudget).
	Budget uint64
	// StopOnGather, when true, stops the run as soon as all agents
	// co-locate. The zero value keeps going: the run continues to the
	// budget collecting first meetings per pair (Gathered still records
	// whether and where gathering was first observed).
	StopOnGather bool
	// StopOnFirstMeeting stops at the first pairwise meeting.
	StopOnFirstMeeting bool
}

// RunMany executes k agents in lock-step on g through the
// direct-execution scheduler: it advances all agents together to the
// next event horizon — the earliest script boundary, wait end, agent
// appearance or budget edge — and inside a horizon runs the burst
// kernel, which steps scripted moves without resuming any program,
// holds waiting agents and skips mutual-wait stretches in O(1).
// Pairwise meetings are recorded (first meeting per pair, see
// MultiResult.Meetings for the order); the run ends on gathering (when
// StopOnGather is set), on the first meeting (when StopOnFirstMeeting is
// set), on the budget, or — when every program has terminated at
// scattered nodes — on proof that nothing further can happen. The
// engine-equivalence tests pin it to a retained round-by-round reference
// engine on randomized cases.
func (s *Session) RunMany(g *graph.Graph, agents []MultiAgent, cfg MultiConfig) MultiResult {
	k := len(agents)
	if k == 0 {
		return MultiResult{}
	}
	s.resetStats()

	// Per-session scheduler state, reused across runs: the runner set,
	// presence flags and the met matrix (met[i*k+j] records that pair
	// (i, j) already has its first meeting) — nothing here allocates in
	// steady state except the result's own Meetings/Moves.
	if cap(s.mrunners) < k {
		s.mrunners = make([]*runner, k)
		s.mpresent = make([]bool, k)
	}
	if cap(s.mmet) < k*k {
		s.mmet = make([]bool, k*k)
	}
	// Compact active set, rebuilt at each boundary (presence only changes
	// there) so the per-round loops run branch-free over present agents.
	if cap(s.mactive) < k {
		s.mactive = make([]*runner, k)
		s.mactiveIdx = make([]int, k)
	}
	if cap(s.mmoved) < k {
		s.mmoved = make([]bool, k)
	}
	m := multiRun{
		s:         s,
		g:         g,
		agents:    agents,
		cfg:       cfg,
		runners:   s.mrunners[:k],
		present:   s.mpresent[:k],
		met:       s.mmet[:k*k],
		active:    s.mactive[:0],
		activeIdx: s.mactiveIdx[:0],
		moved:     s.mmoved[:k],
	}
	m.begin()
	defer func() {
		publishRunStats(&s.stats, runKindMulti)
		m.release()
	}()
	for !m.step() {
	}
	return m.res
}

// multiRun is one k-agent run's complete scheduler state: RunMany drives
// it to completion one scheduler iteration (step) at a time. Its backing
// slices are the session's reusable m* buffers.
type multiRun struct {
	s      *Session
	g      *graph.Graph
	agents []MultiAgent
	cfg    MultiConfig
	budget uint64

	runners   []*runner
	present   []bool
	met       []bool
	active    []*runner
	activeIdx []int
	// Per-step scratch: nothing in it survives one step call.
	moved []bool

	res          MultiResult
	presentCount int
	unmet        int // pairs with no first meeting yet
	t            uint64
	first        bool
}

// begin resets the run state for a fresh run over the configured agents.
// The backing slices must already have their per-run lengths.
func (m *multiRun) begin() {
	m.budget = m.cfg.Budget
	if m.budget == 0 {
		m.budget = DefaultBudget
	}
	for i := range m.runners {
		m.runners[i] = nil
		m.present[i] = false
	}
	for i := range m.met {
		m.met[i] = false
	}
	m.active = m.active[:0]
	m.activeIdx = m.activeIdx[:0]
	m.res = MultiResult{Moves: make([]uint64, len(m.agents))}
	m.presentCount = 0
	m.unmet = len(m.agents) * (len(m.agents) - 1) / 2
	m.t = 0
	m.first = true
}

// release returns every runner the run still holds to the session pool.
func (m *multiRun) release() {
	for i, r := range m.runners {
		if r != nil {
			m.s.release(r)
			m.runners[i] = nil
		}
	}
}

// finish stamps the final round count and per-agent move totals. It
// always returns true (step's "done" value).
func (m *multiRun) finish() bool {
	m.res.Rounds = m.t
	for i, r := range m.runners {
		if r != nil {
			m.res.Moves[i] = r.moves
		}
	}
	return true
}

// detect records the first meeting of every co-located pair at round
// t and the first gathering round, in deterministic (i, j) scan
// order over the active set (which is index-sorted by construction);
// it reports whether a stop condition fired. moved, when non-nil,
// restricts the scan to pairs with at least one member that moved
// this round — a pair of stationary agents cannot newly co-locate,
// and gathering can only begin on a round somebody moved (or at a
// boundary, which passes nil for a full scan). It is idempotent at a
// fixed round, so the boundary re-check after an in-horizon
// detection is harmless.
func (m *multiRun) detect(t uint64, moved []bool) bool {
	active, activeIdx, met, k := m.active, m.activeIdx, m.met, len(m.agents)
	coloc := false
	for a := 0; a < len(active); a++ {
		pi := active[a].pos
		i := activeIdx[a]
		aMoved := moved == nil || moved[a]
		for b := a + 1; b < len(active); b++ {
			if !aMoved && !moved[b] {
				continue
			}
			if active[b].pos != pi {
				continue
			}
			coloc = true
			if met[i*k+activeIdx[b]] {
				continue
			}
			met[i*k+activeIdx[b]] = true
			m.unmet--
			m.res.Meetings = append(m.res.Meetings, Meeting{A: i, B: activeIdx[b], Node: pi, Round: t})
		}
	}
	if (coloc || k == 1) && m.presentCount == k && !m.res.Gathered {
		runners := m.runners
		gathered := true
		for i := 1; i < k; i++ {
			if runners[i].pos != runners[0].pos {
				gathered = false
				break
			}
		}
		if gathered {
			m.res.Gathered = true
			m.res.GatherNode = runners[0].pos
			m.res.GatherRound = t
		}
	}
	return (m.res.Gathered && m.cfg.StopOnGather) ||
		(m.cfg.StopOnFirstMeeting && len(m.res.Meetings) > 0)
}

// watch is what a burst must stop for: a co-location of a pair that has
// not met, then — once every pair has — only the first gathering, then
// nothing.
func (m *multiRun) watch() watch {
	if m.unmet > 0 {
		return watch{met: m.met, idx: m.activeIdx, k: len(m.agents)}
	}
	gather := !m.res.Gathered && m.presentCount == len(m.agents)
	return watch{gather: gather, off: !gather}
}

// step runs one scheduler iteration — an event boundary followed by one
// full event-horizon drive — and reports whether the run ended (res is
// then final). Boundary fetches resume agent programs, one coroutine
// switch each; inside a horizon no program runs, by construction.
func (m *multiRun) step() bool {
	s, g, agents := m.s, m.g, m.agents
	k := len(agents)
	runners, present := m.runners, m.present
	budget := m.budget
	t := m.t

	// Event boundary: start newly-appearing agents and pull the next
	// request from every agent that finished its previous action.
	// States can only change here — inside a horizon no runner ever
	// reaches stNeedReq before the horizon's final round.
	appeared := false
	for i := range agents {
		if !present[i] && t >= agents[i].Appear {
			runners[i] = s.acquire(g, agents[i].Program, agents[i].Start)
			present[i] = true
			m.presentCount++
			appeared = true
		}
		if present[i] {
			runners[i].fetch()
		}
	}
	if appeared {
		m.active = m.active[:0]
		m.activeIdx = m.activeIdx[:0]
		for i := 0; i < k; i++ {
			if present[i] {
				m.active = append(m.active, runners[i])
				m.activeIdx = append(m.activeIdx, i)
			}
		}
	}
	active := m.active

	// Positions only change inside bursts, which stop on every
	// co-location left to record; a boundary needs its own detection
	// pass only when a new agent materialized (or on round 0).
	if (appeared || m.first) && m.detect(t, nil) {
		return m.finish()
	}
	m.first = false
	if t >= budget {
		return m.finish()
	}
	// All programs done and scattered: nothing can change.
	allDone := m.presentCount == k
	for i := 0; allDone && i < k; i++ {
		if runners[i].state != stDone {
			allDone = false
		}
	}
	if allDone {
		return m.finish()
	}

	// Event horizon: how far every agent can be driven without resuming
	// any program — bounded by the budget, the next appearance, and each
	// runner's runway.
	horizon := budget - t
	for i := range agents {
		if !present[i] {
			if d := agents[i].Appear - t; d < horizon {
				horizon = d
			}
			continue
		}
		if rw := runners[i].runway(); rw < horizon {
			horizon = rw
		}
	}
	// When the horizon ends exactly at an appearance round, the
	// detection for that round belongs to the boundary (after the
	// new agents materialize): the reference engine processes
	// appearances before scanning pairs, and the scan order of a
	// round's meetings must match it exactly.
	appearBound := false
	for i := range agents {
		if !present[i] && agents[i].Appear == t+horizon {
			appearBound = true
			break
		}
	}

	// Drive the horizon in bursts, each ending early on a co-location
	// the run still has to record. A pending single move (a per-move
	// program) takes one round of every agent instead, then a detection.
	moved := m.moved
	for horizon > 0 {
		steps, hit := burst(active, horizon, moved, m.watch())
		if steps == 0 {
			for ai, r := range active {
				moved[ai] = r.roundsUntilMove() == 0
				r.advance(1)
			}
			steps, hit = 1, true
		}
		t += steps
		horizon -= steps
		if horizon == 0 && appearBound {
			break // detection at t runs at the boundary, post-appearance
		}
		if hit && m.detect(t, moved) {
			m.t = t
			return m.finish()
		}
	}
	m.t = t
	return false
}

// GatherCheck validates MultiResult invariants: every meeting has A < B,
// each pair appears at most once, and no meeting is recorded after the
// run's final round (res.Rounds). The experiment harness and the
// differential tests run it over every multi-agent result.
func GatherCheck(res MultiResult) error {
	seen := map[[2]int]bool{}
	for _, m := range res.Meetings {
		if m.A >= m.B {
			return fmt.Errorf("sim: meeting pair out of order: %+v", m)
		}
		key := [2]int{m.A, m.B}
		if seen[key] {
			return fmt.Errorf("sim: duplicate meeting for pair %v", key)
		}
		seen[key] = true
		if m.Round > res.Rounds {
			return fmt.Errorf("sim: meeting after run end: %+v", m)
		}
	}
	return nil
}
