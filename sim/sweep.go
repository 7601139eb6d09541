package sim

import (
	"runtime"
	"sort"
	"sync"
)

// This file is the sweep scheduler: the experiment harness runs thousands
// of independent, deterministic, single-threaded simulator runs, and the
// scheduler's job is to spread them over workers without giving up
// position-stable results. Sweep shards the case list by a caller-chosen
// key — typically the (graph, parameter block) a case belongs to — so that
// all cases of one shard run sequentially on one worker (warm per-worker
// scratch, no cross-worker cache bouncing for one graph's data), while
// distinct shards run concurrently, dealt largest-first so the long shards
// start early. ParallelMap is the degenerate one-case-per-shard form.

// Scratch is the per-worker state handed to every Sweep callback: a
// pooled simulator Session and a caller-defined Stash. Exactly one
// goroutine owns a Scratch at any time, so callbacks may use it freely
// without locking; nothing in it is ever shared across workers (pinned
// by the -race tests).
type Scratch struct {
	stash   any
	session *Session
}

// Session returns the worker's pooled simulator session, creating it on
// first use. Runs issued through it (Session.Run, Session.RunPrograms,
// Session.RunMany) reuse agent coroutines and per-agent buffers across
// all cases the worker drains. Sweep closes the session when the worker
// retires; callbacks must not retain it past their return.
func (s *Scratch) Session() *Session {
	if s.session == nil {
		s.session = NewSession()
	}
	return s.session
}

// close retires the scratch's pooled resources at worker exit.
func (s *Scratch) close() {
	if s.session != nil {
		s.session.Close()
		s.session = nil
	}
}

// Stash returns this worker's caller-defined scratch value, building it
// with init on first use. Typical use: a per-worker view.Refiner or result
// accumulator that would be racy as a shared package variable.
func (s *Scratch) Stash(init func() any) any {
	if s.stash == nil && init != nil {
		s.stash = init()
	}
	return s.stash
}

// Sweep applies f to every item and returns the results in input order.
//
// key partitions the items into shards: items with equal keys (any
// comparable value — the natural choice is the case's *graph.Graph, or a
// parameter-block index) form one shard and are processed sequentially, in
// input order, by a single worker. A nil key puts every item in its own
// shard (maximum parallelism, no locality). Shards are dealt to workers
// largest-first; each worker owns one Scratch for its whole lifetime, so
// state stashed there is warm across every shard that worker drains.
// Results are aggregated per shard into disjoint regions of the output
// (shards partition the index space), so no synchronization is needed
// beyond the shard queue and results are position-stable regardless of
// scheduling.
//
// workers <= 0 selects GOMAXPROCS. Individual runs are single-threaded
// and deterministic, so sweeps parallelize across runs, not within them.
func Sweep[T, R any](items []T, workers int, key func(T) any, f func(*Scratch, T) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}

	// Shard the index space by key, first-occurrence order.
	var shards [][]int
	if key == nil {
		idx := make([]int, len(items))
		shards = make([][]int, len(items))
		for i := range items {
			idx[i] = i
			shards[i] = idx[i : i+1 : i+1]
		}
	} else {
		byKey := make(map[any]int, len(items))
		for i, it := range items {
			k := key(it)
			si, ok := byKey[k]
			if !ok {
				si = len(shards)
				shards = append(shards, nil)
				byKey[k] = si
			}
			shards[si] = append(shards[si], i)
		}
	}

	// Largest-first deal order (stable: ties keep first-occurrence order).
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(shards[order[a]]) > len(shards[order[b]])
	})

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		s := &Scratch{}
		defer s.close()
		for _, si := range order {
			for _, i := range shards[si] {
				out[i] = f(s, items[i])
			}
		}
		return out
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &Scratch{}
			defer s.close()
			for si := range next {
				for _, i := range shards[si] {
					out[i] = f(s, items[i])
				}
			}
		}()
	}
	for _, si := range order {
		next <- si
	}
	close(next)
	wg.Wait()
	return out
}

// ParallelMap applies f to every item using a bounded worker pool and
// returns the results in input order — Sweep with one item per shard and
// the scratch unused. Kept for callers without locality structure.
//
// workers <= 0 selects GOMAXPROCS.
func ParallelMap[T, R any](items []T, workers int, f func(T) R) []R {
	return Sweep(items, workers, nil, func(_ *Scratch, it T) R { return f(it) })
}
