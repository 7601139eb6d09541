// Package uxs implements Universal Exploration Sequences (UXS) as used in
// Section 2 of the paper: a sequence Y(n) = (a1..aM) of integers whose
// application from any node of any graph of size n visits all nodes. The
// application rule is relative to the entry port: from node u_i entered by
// port p, the walk leaves by port (p + a_i) mod d(u_i); the first step
// leaves the start node by port 0.
//
// Substitution S1 (see DESIGN.md): the paper relies on the existence of
// polynomial-length UXS via Reingold's derandomized connectivity. We
// generate a deterministic pseudorandom sequence instead and *verify* the
// covering property per graph: Covers is the checker, and the test suite
// and experiment harness verify every graph family and size they use. This
// preserves the only property the rendezvous algorithms consume.
package uxs

import (
	"sync"

	"repro/graph"
	"repro/internal/rng"
)

// Sequence is a universal exploration sequence candidate.
type Sequence []int

// DefaultLength is the generated length for graphs of size n:
// 3 * n^2 * (bitlen(n)+1). Random-walk cover times of the bounded-degree
// families used by the experiments are O(n^2 log n) or better, and the
// verifier (Covers) keeps the choice honest: every family and size the
// experiments use is checked in the uxs test suite. The constant is kept
// tight because the UXS length multiplies the running time of every
// algorithm in package rendezvous.
func DefaultLength(n int) int {
	if n < 2 {
		return 1
	}
	bits := 0
	for x := n; x > 0; x >>= 1 {
		bits++
	}
	return 3 * n * n * (bits + 1)
}

// memo caches generated sequences per n. Sequences are deterministic
// functions of n and prefix-consistent across lengths, so one cached copy
// (the longest requested so far) serves every phase of every run and every
// sweep worker; the paper's algorithms regenerate Y(n) once per phase,
// which without the cache multiplies 3n²·(lg n+1) terms of rng work into
// every hot loop. Guarded by a mutex: sweeps call Generate concurrently.
var memo struct {
	mu   sync.Mutex
	seqs map[int]Sequence
}

// Generate returns the deterministic UXS candidate Y(n) for graphs of size
// n. Both agents of a rendezvous instance compute the same sequence from n
// alone, as the paper requires. Terms lie in [0, n).
//
// The result is memoized and shared between callers (including concurrent
// sweep workers); callers must treat it as read-only.
func Generate(n int) Sequence {
	return GenerateLength(n, DefaultLength(n))
}

// GenerateLength returns the deterministic candidate of an explicit length.
// Sequences of different lengths agree on their common prefix, so extending
// a sequence refines rather than replaces the walk — which is also what
// makes the length-capped view returned here safe to serve from the shared
// per-n cache. Callers must treat the result as read-only.
func GenerateLength(n, length int) Sequence {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	s := memo.seqs[n]
	if len(s) < length {
		gen := length
		if d := DefaultLength(n); d > gen {
			gen = d
		}
		s = generate(n, gen)
		if memo.seqs == nil {
			memo.seqs = make(map[int]Sequence)
		}
		memo.seqs[n] = s
	}
	return s[:length:length]
}

// generate computes the raw candidate of an explicit length.
func generate(n, length int) Sequence {
	r := rng.New(0xC0FFEE ^ uint64(n)*0x9E3779B97F4A7C15)
	s := make(Sequence, length)
	for i := range s {
		s[i] = r.Intn(n)
	}
	return s
}

// coversFrom reports whether the application of s at u visits every
// node. The walk is streamed — no path slice is materialized — and
// returns as soon as the last unvisited node is reached. stamp is an
// epoch-tagged visited array (stamp[v] == epoch means visited), reusable
// across starts without clearing.
func coversFrom(g *graph.Graph, u int, s Sequence, stamp []int, epoch int) bool {
	n := g.N()
	stamp[u] = epoch
	if n == 1 {
		return true
	}
	count := 1
	cur, entry := g.Succ(u, 0)
	if stamp[cur] != epoch {
		stamp[cur] = epoch
		if count++; count == n {
			return true
		}
	}
	for _, a := range s {
		p := (entry + a) % g.Degree(cur)
		cur, entry = g.Succ(cur, p)
		if stamp[cur] != epoch {
			stamp[cur] = epoch
			if count++; count == n {
				return true
			}
		}
	}
	return false
}

// Covers reports whether s is a UXS for the concrete graph g: its
// application from every node visits all nodes. One visited array is
// reused (epoch-stamped) across all n starts.
func Covers(g *graph.Graph, s Sequence) bool {
	stamp := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		if !coversFrom(g, u, s, stamp, u+1) {
			return false
		}
	}
	return true
}
