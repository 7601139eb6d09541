package sim

import "repro/graph"

// This file is the k-agent batch engine: RunBatch executes a shard of
// independent k-agent cases on one graph as interleaved lanes of one
// Batch arena. Lane li returns exactly Session.RunMany of its case —
// full MultiResult equality including Meetings order, per-lane wakeup
// counts and slice nil-ness, pinned by the randomized differential
// suite in batchequiv_test.go.

// MultiCase is one k-agent lane of RunBatch: the RunMany parameters
// minus the shared graph.
type MultiCase struct {
	Agents []MultiAgent
	Cfg    MultiConfig
}

// Batch is the reusable structure-of-arrays arena behind one in-flight
// batch run: per-lane wakeup counts, the run's statistics sink and the
// multi-lane scheduler state, all recycled between calls (multi results
// inherently allocate their Meetings/Moves). A Batch may be used by one
// batch run at a time; distinct Batches may run concurrently on one
// Session (the runner pool is the only shared state, and it is
// mutex-guarded).
type Batch struct {
	stats   runStats
	wakeups []uint64 // per-lane wakeup counts, indexed by case

	// act is the live-lane index list, compacted in place as lanes
	// retire.
	act []int

	// Multi-lane state: one parked multiRun per lane, its slices carved
	// from the flat arrays below (sized sum-of-k / sum-of-k² across the
	// batch), plus one shared per-step scratch set sized for the largest
	// lane — safe because lanes advance strictly one step at a time and
	// nothing in the scratch survives a step.
	runs       []multiRun
	mrunners   []*runner
	mpresent   []bool
	mmet       []bool
	mactive    []*runner
	mactiveIdx []int
	moved      []bool
	bhead      []int32
	bnext      []int32
	mresults   []MultiResult
}

// NewBatch returns an empty arena; arrays grow on first use and are
// recycled afterwards.
func NewBatch() *Batch { return &Batch{} }

// Wakeups returns the per-lane scheduler wakeup counts of the arena's
// most recent batch run: Wakeups()[i] is exactly what Session.Wakeups
// would have reported after running case i on the per-case engine. The
// slice is valid until the arena's next batch run.
func (b *Batch) Wakeups() []uint64 { return b.wakeups }

// ensure returns s resized to length n, reusing its backing array
// whenever it is large enough. Contents are unspecified.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// RunBatch executes every k-agent case on g through interleaved lanes —
// the multi-agent batch engine — and returns the per-case results,
// results[i] being field-for-field what Session.RunMany(g, cases[i]...)
// returns (nil-ness of Meetings/Moves included). Each lane is a parked
// multiRun advanced one scheduler iteration (boundary + event horizon)
// per sweep; a lane acquires and releases its runners exactly as RunMany
// does — its first step starts the round-zero agents, and it releases
// every runner the moment it retires. The returned slice is backed by
// the arena and valid until b's next batch run; per-lane wakeups are
// available from b.Wakeups.
func (s *Session) RunBatch(g *graph.Graph, cases []MultiCase, b *Batch) []MultiResult {
	w := len(cases)
	b.stats = runStats{}
	sumK, sumK2, maxK := 0, 0, 0
	for i := range cases {
		k := len(cases[i].Agents)
		sumK += k
		sumK2 += k * k
		if k > maxK {
			maxK = k
		}
	}
	b.runs = ensure(b.runs, w)
	b.mrunners = ensure(b.mrunners, sumK)
	b.mpresent = ensure(b.mpresent, sumK)
	b.mmet = ensure(b.mmet, sumK2)
	b.mactive = ensure(b.mactive, sumK)
	b.mactiveIdx = ensure(b.mactiveIdx, sumK)
	b.moved = ensure(b.moved, maxK)
	b.wakeups = ensure(b.wakeups, w)
	b.mresults = ensure(b.mresults, w)
	if cap(b.act) < w {
		b.act = make([]int, 0, w)
	}
	useBuckets := maxK >= bucketScanMinK
	if useBuckets {
		b.bhead = ensure(b.bhead, g.N())
		for i := range b.bhead {
			b.bhead[i] = -1
		}
		b.bnext = ensure(b.bnext, maxK)
	}
	defer b.cleanup(s)

	off, off2 := 0, 0
	for i := range cases {
		b.wakeups[i] = 0
		k := len(cases[i].Agents)
		m := &b.runs[i]
		*m = multiRun{
			s:      s,
			g:      g,
			agents: cases[i].Agents,
			cfg:    cases[i].Cfg,
			stats:  &b.stats,
			lane:   &b.wakeups[i],
		}
		if k == 0 {
			// RunMany's k == 0 contract: the zero MultiResult, nil slices.
			m.done = true
			continue
		}
		m.runners = b.mrunners[off : off+k : off+k]
		m.present = b.mpresent[off : off+k : off+k]
		m.met = b.mmet[off2 : off2+k*k : off2+k*k]
		m.active = b.mactive[off : off : off+k]
		m.activeIdx = b.mactiveIdx[off : off : off+k]
		m.moved = b.moved
		if m.useBuckets = k >= bucketScanMinK; m.useBuckets {
			m.bhead = b.bhead[:g.N()]
			m.bnext = b.bnext
		}
		off += k
		off2 += k * k
		m.begin()
	}

	act := b.act[:0]
	for i := range b.runs {
		if !b.runs[i].done {
			act = append(act, i)
		}
	}
	for len(act) > 0 {
		n := 0
		for _, li := range act {
			m := &b.runs[li]
			if m.step() {
				m.release()
				continue // lane retired in place
			}
			act[n] = li
			n++
		}
		act = act[:n]
	}
	results := b.mresults[:w]
	for i := range b.runs {
		results[i] = b.runs[i].res
		b.runs[i] = multiRun{} // drop program/graph references
	}
	return results
}

// cleanup is the deferred tail of every batch run: release whatever
// lane runners are still live (only on a panicking unwind) and publish
// the batch totals as the session's most-recent-run statistics (under
// the pool lock: concurrent batches may finish together, and
// last-writer-wins is the documented "most recent" semantics).
func (b *Batch) cleanup(s *Session) {
	for i := range b.runs {
		b.runs[i].release()
	}
	s.mu.Lock()
	s.stats = b.stats
	s.mu.Unlock()
	publishRunStats(&b.stats, runKindBatch)
}
