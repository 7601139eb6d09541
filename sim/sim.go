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
// RunPrograms, and the two-agent engine loop itself.
func (s *Session) RunPrograms(g *graph.Graph, progA, progB agent.Program, u, v int, delay uint64, cfg Config) Result {
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	s.resetStats()
	var pair [2]*runner // ra, then rb once the later agent appears
	var moved [2]bool
	ra := s.acquire(g, progA, u)
	var rb *runner
	pair[0] = ra
	defer func() {
		publishRunStats(&s.stats, runKindPair)
		s.release(ra)
		if rb != nil {
			s.release(rb)
		}
	}()

	t := uint64(0)
	for {
		ra.fetch()
		if t >= delay && rb == nil {
			rb = s.acquire(g, progB, v)
			pair[1] = rb
		}
		if rb != nil {
			rb.fetch()
		}
		if cfg.Observer != nil {
			posB := -1
			if rb != nil {
				posB = rb.pos
			}
			cfg.Observer(t, ra.pos, posB)
		}
		if rb != nil && ra.pos == rb.pos {
			return meeting(ra, rb, t, delay)
		}
		if ra.state == stDone && rb != nil && rb.state == stDone {
			return Result{Outcome: NeverMeet, Rounds: t, MovesA: ra.moves, MovesB: rb.moves}
		}
		if t >= budget {
			res := Result{Outcome: BudgetExhausted, Rounds: t, MovesA: ra.moves}
			if rb != nil {
				res.MovesB = rb.moves
			}
			return res
		}

		// Burst to the next event: a fetch, the appearance, the budget or
		// the meeting. A meeting both agents moved into returns at once;
		// one with a held agent is detected at the loop top, after the
		// fetches the round-by-round schedule makes first.
		if cfg.Observer == nil {
			rs, n := pair[:2], budget-t
			if rb == nil {
				rs, n = pair[:1], min(n, delay-t)
			}
			if steps, hit := burst(rs, n, moved[:], watch{}); steps > 0 {
				t += steps
				if hit && moved[0] && moved[1] {
					return meeting(ra, rb, t, delay)
				}
				continue
			}
		}
		// One round: an observer watches, or a single move is pending.
		ra.advance(1)
		if rb != nil {
			rb.advance(1)
		}
		t++
	}
}

// meeting is the result of a run whose agents met at round t.
func meeting(ra, rb *runner, t, delay uint64) Result {
	return Result{Outcome: Met, MeetingNode: ra.pos, MeetingRound: t, TimeFromLater: t - delay,
		Rounds: t, MovesA: ra.moves, MovesB: rb.moves}
}

// burstChunk bounds how many rounds each walker walks between
// co-location scans — the size of a runner's position log. Chunks with
// a walker start at burstFirst rounds and double, so a walker walks at
// most as far past a burst's end as the burst had already run.
const (
	burstFirst = 16
	burstChunk = 128
)

// watch names the co-locations that end a burst. The zero value watches
// every pair of runners.
type watch struct {
	off    bool    // nothing left to detect
	gather bool    // only every runner on one node (all pairs have met)
	met    []bool  // pairs that already met, met[idx[a]*k+idx[b]]; nil: none
	idx    []int   // agent index of each runner
	k      int     // agent count, met's row length
	bhead  []int32 // per-node bucket heads, all -1: an O(k) probe per round
	bnext  []int32 // bucket links, one per runner
}

// burst is the scripted-step kernel of both engines. It runs the present
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
func burst(rs []*runner, n uint64, moved []bool, w watch) (steps uint64, hit bool) {
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
		if !w.off && w.bhead == nil && c > filled {
			// A held runner's log is its fixed node, so one scan covers
			// all (the bucket probe reads held nodes directly).
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
// r and fills the degree stream of a degree-reporting script (the node's
// degree after each action).
func (r *runner) walked(j, waits, pos, entry int) {
	at := r.scriptAt
	if d := r.scriptDegs; d != nil {
		for i, p := range r.log[:j] {
			d[at+i] = r.g.Degree(p)
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
	if s := r.stats; s != nil {
		s.replayed += uint64(c)
	}
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
	case w.bhead != nil:
		// Position buckets: held runners stay in theirs, each round's
		// walkers join them, and a walker landing beside a runner it has
		// not met is a hit. Walkers leave, then held runners, in reverse
		// order of joining, which restores every head.
		best, bhead, bnext := c, w.bhead, w.bnext
		for i, r := range rs {
			if !moved[i] {
				bnext[i], bhead[r.pos] = bhead[r.pos], int32(i)
			}
		}
		for j := 0; j < best; j++ {
			for i, r := range rs {
				if moved[i] {
					p := r.log[j]
					for o := bhead[p]; o >= 0; o = bnext[o] {
						if !w.met[w.idx[min(i, int(o))]*w.k+w.idx[max(i, int(o))]] {
							best = j
						}
					}
					bnext[i], bhead[p] = bhead[p], int32(i)
				}
			}
			for i := len(rs) - 1; i >= 0; i-- {
				if moved[i] {
					bhead[rs[i].log[j]] = bnext[i]
				}
			}
		}
		for i := len(rs) - 1; i >= 0; i-- {
			if !moved[i] {
				bhead[rs[i].pos] = bnext[i]
			}
		}
		return best
	}
	best := c
	for a := range rs {
		for b := a + 1; b < len(rs); b++ {
			if !moved[a] && !moved[b] || w.met != nil && w.met[w.idx[a]*w.k+w.idx[b]] {
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
