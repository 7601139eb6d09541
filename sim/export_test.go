package sim

import "repro/graph"

// Replayed returns the agent-rounds the session's most recent run
// replayed from block records instead of walking them.
func (s *Session) Replayed() uint64 { return s.stats.replayed }

// RunMany runs one k-agent case on a fresh Session (see Session.RunMany).
func RunMany(g *graph.Graph, agents []MultiAgent, cfg MultiConfig) MultiResult {
	var s Session
	defer s.Close()
	return s.RunMany(g, agents, cfg)
}

// RunManyReference is the retained round-by-round k-agent engine: one
// scheduler iteration per simulated round (plus the mutual-wait
// fast-forward), with meeting bookkeeping in a map. It is the reference
// spec the differential engine-equivalence tests pin RunMany against —
// behavior-identical, field by field, including the Meetings order — and
// is not meant for production use (RunMany is strictly faster).
func RunManyReference(g *graph.Graph, agents []MultiAgent, cfg MultiConfig) MultiResult {
	if len(agents) == 0 {
		return MultiResult{}
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	var sess Session
	defer sess.Close()
	runners := make([]*runner, len(agents))
	present := make([]bool, len(agents))
	defer func() {
		for _, r := range runners {
			if r != nil {
				sess.release(r)
			}
		}
	}()

	met := make(map[[2]int]bool)
	var res MultiResult
	res.Moves = make([]uint64, len(agents))

	t := uint64(0)
	for {
		for i, a := range agents {
			if !present[i] && t >= a.Appear {
				runners[i] = sess.acquire(g, a.Program, a.Start)
				present[i] = true
			}
			if present[i] {
				runners[i].fetch()
			}
		}

		// Detect meetings and gathering at round t: allocation-free O(k^2)
		// pairwise position compare, in deterministic (i, j) order.
		presentCount := 0
		for i := range agents {
			if present[i] {
				presentCount++
			}
		}
		for i := 0; i < len(agents); i++ {
			if !present[i] {
				continue
			}
			for j := i + 1; j < len(agents); j++ {
				if !present[j] || runners[i].pos != runners[j].pos {
					continue
				}
				key := [2]int{i, j}
				if !met[key] {
					met[key] = true
					res.Meetings = append(res.Meetings, Meeting{A: i, B: j, Node: runners[i].pos, Round: t})
				}
			}
		}
		if presentCount == len(agents) && !res.Gathered {
			gathered := true
			for i := 1; i < len(agents); i++ {
				if runners[i].pos != runners[0].pos {
					gathered = false
					break
				}
			}
			if gathered {
				res.Gathered = true
				res.GatherNode = runners[0].pos
				res.GatherRound = t
			}
		}
		stop := false
		if res.Gathered && cfg.StopOnGather {
			stop = true
		}
		if cfg.StopOnFirstMeeting && len(res.Meetings) > 0 {
			stop = true
		}
		if t >= budget {
			stop = true
		}
		// All programs done and scattered: nothing can change.
		allDone := true
		for i := range agents {
			if !present[i] || runners[i].state != stDone {
				allDone = false
				break
			}
		}
		if allDone {
			stop = true
		}
		if stop {
			res.Rounds = t
			for i, r := range runners {
				if r != nil {
					res.Moves[i] = r.moves
				}
			}
			return res
		}

		// Fast-forward across mutual waits / pre-appearance gaps.
		skip := budget - t
		for i, a := range agents {
			if !present[i] {
				if d := a.Appear - t; d < skip {
					skip = d
				}
				continue
			}
			if s := runners[i].roundsUntilMove(); s < skip {
				skip = s
			}
		}
		if skip < 1 {
			skip = 1
		}
		for i := range agents {
			if present[i] {
				runners[i].advance(skip)
			}
		}
		t += skip
	}
}
