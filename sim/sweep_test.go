package sim

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/graph"
	"repro/view"
)

func TestSweepOrderStable(t *testing.T) {
	items := make([]int, 203)
	for i := range items {
		items[i] = i
	}
	got := Sweep(items, 8, func(x int) any { return x % 7 }, func(_ *Scratch, x int) int {
		return x * x
	})
	for i, r := range got {
		if r != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, r, i*i)
		}
	}
}

func TestSweepShardsRunSequentiallyInInputOrder(t *testing.T) {
	// All items of one shard must be processed by one worker, one after
	// another, in input order — the locality contract callers with
	// per-shard state rely on.
	type item struct{ key, seq int }
	var items []item
	for s := 0; s < 5; s++ {
		for i := 0; i < 40; i++ {
			items = append(items, item{key: s, seq: i})
		}
	}
	var mu sync.Mutex
	seen := map[int][]int{}        // key -> observed seq order
	workerOf := map[int]*Scratch{} // key -> the scratch of the worker that ran it
	Sweep(items, 4, func(it item) any { return it.key }, func(s *Scratch, it item) int {
		mu.Lock()
		defer mu.Unlock()
		seen[it.key] = append(seen[it.key], it.seq)
		if prev, ok := workerOf[it.key]; ok && prev != s {
			t.Errorf("shard %d ran on two workers", it.key)
		}
		workerOf[it.key] = s
		return 0
	})
	for k, order := range seen {
		for i, seq := range order {
			if seq != i {
				t.Fatalf("shard %d processed out of order: %v", k, order)
			}
		}
	}
}

// TestSweepScratchIsolation is the -race test for the per-worker scratch:
// every callback checks that its worker's Stash holds the buffers built
// for that worker's Scratch, fills them with an item-stamped pattern and
// re-reads them after doing unrelated work. If two workers ever shared a
// Scratch, the pattern check fails and the race detector flags the
// unsynchronized writes.
func TestSweepScratchIsolation(t *testing.T) {
	items := make([]int, 512)
	for i := range items {
		items[i] = i
	}
	var calls atomic.Int64
	type buffers struct {
		owner *Scratch
		ints  []int
		bytes []byte
	}
	Sweep(items, 8, func(x int) any { return x % 32 }, func(s *Scratch, x int) int {
		b := s.Stash(func() any { return &buffers{owner: s, ints: make([]int, 128), bytes: make([]byte, 64)} }).(*buffers)
		if b.owner != s {
			t.Errorf("item %d: a worker got another worker's stash", x)
		}
		buf, bs := b.ints, b.bytes
		for i := range buf {
			buf[i] = x
		}
		for i := range bs {
			bs[i] = byte(x)
		}
		// Unrelated work between write and check, so interleavings with
		// other workers get a chance to corrupt a shared buffer.
		acc := 0
		for i := 0; i < 1000; i++ {
			acc += i * x
		}
		_ = acc
		for i := range buf {
			if buf[i] != x {
				t.Errorf("scratch ints corrupted: item %d", x)
				break
			}
		}
		for i := range bs {
			if bs[i] != byte(x) {
				t.Errorf("scratch bytes corrupted: item %d", x)
				break
			}
		}
		calls.Add(1)
		return 0
	})
	if got := calls.Load(); got != int64(len(items)) {
		t.Fatalf("ran %d callbacks, want %d", got, len(items))
	}
}

func TestSweepStashIsPerWorker(t *testing.T) {
	// Stash builds one value per worker; the sum of all per-worker
	// counters must equal the item count, and a counter must never be
	// touched by two workers (checked by -race).
	type counter struct {
		owner *Scratch
		n     int
	}
	var mu sync.Mutex
	var all []*counter
	items := make([]int, 300)
	Sweep(items, 6, func(x int) any { return x }, func(s *Scratch, _ int) int {
		c := s.Stash(func() any {
			c := &counter{owner: s}
			mu.Lock()
			all = append(all, c)
			mu.Unlock()
			return c
		}).(*counter)
		if c.owner != s {
			t.Error("a worker got another worker's stash")
		}
		c.n++
		return 0
	})
	total := 0
	for _, c := range all {
		total += c.n
	}
	if total != len(items) {
		t.Fatalf("stash counters sum to %d, want %d", total, len(items))
	}
	if len(all) > 6 {
		t.Fatalf("%d stashes built for 6 workers", len(all))
	}
}

// TestSweepWithRefinerStash exercises the intended production pattern: a
// per-worker view.Refiner reused across a shard's cases, racing against
// other workers' refiners under -race.
func TestSweepWithRefinerStash(t *testing.T) {
	type caze struct {
		g *graph.Graph
		u int
		v int
	}
	var cases []caze
	graphs := []*graph.Graph{graph.Cycle(8), graph.Path(5), graph.Star(4), graph.Hypercube(3)}
	for _, g := range graphs {
		for u := 0; u < g.N(); u++ {
			cases = append(cases, caze{g, u, (u + 1) % g.N()})
		}
	}
	got := Sweep(cases, 4, func(c caze) any { return c.g }, func(s *Scratch, c caze) bool {
		r := s.Stash(func() any { return &view.Refiner{} }).(*view.Refiner)
		classes := r.Classes(c.g)
		return classes[c.u] == classes[c.v]
	})
	for i, c := range cases {
		if want := view.Symmetric(c.g, c.u, c.v); got[i] != want {
			t.Fatalf("case %d (%s %d,%d): sweep says %v, oracle %v", i, c.g, c.u, c.v, got[i], want)
		}
	}
}

func TestSweepEmptyAndSingle(t *testing.T) {
	if got := Sweep(nil, 4, nil, func(_ *Scratch, x int) int { return x }); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
	one := Sweep([]int{7}, 0, nil, func(_ *Scratch, x int) int { return x + 1 })
	if len(one) != 1 || one[0] != 8 {
		t.Fatalf("single sweep: %v", one)
	}
}
