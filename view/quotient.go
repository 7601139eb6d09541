package view

import (
	"fmt"
	"strings"

	"repro/graph"
)

// Quotient is the minimum base of a port-labeled graph (Yamashita &
// Kameda): one state per view-equivalence class, with deterministic port
// transitions. Two nodes have equal views iff they map to the same
// quotient state, and any walk in the graph projects to a walk in the
// quotient. The quotient is generally a multigraph with self-loops, so it
// is represented as a port automaton rather than a graph.Graph.
type Quotient struct {
	// Class[v] is the quotient state of node v.
	Class []int
	// Degree[c] is the (common) degree of the nodes in class c.
	Degree []int
	// Next[c][p] is the class reached from class c through port p.
	Next [][]int
	// EntryPort[c][p] is the (common) port by which that edge is entered.
	EntryPort [][]int
	// Size[c] is the number of graph nodes in class c (fiber size).
	Size []int
}

// NewQuotient computes the quotient of g from its view classes (via the
// flat Refiner; the transition tables are carved from two shared slabs
// rather than allocated per class).
func NewQuotient(g *graph.Graph) *Quotient {
	class := Classes(g)
	k := 0
	for _, c := range class {
		if c+1 > k {
			k = c + 1
		}
	}
	q := &Quotient{
		Class:     class,
		Degree:    make([]int, k),
		Next:      make([][]int, k),
		EntryPort: make([][]int, k),
		Size:      make([]int, k),
	}
	rep := make([]int, k) // representative node per class
	total := 0
	seen := make([]bool, k)
	for v := 0; v < g.N(); v++ {
		c := class[v]
		q.Size[c]++
		if !seen[c] {
			seen[c] = true
			rep[c] = v
			q.Degree[c] = g.Degree(v)
			total += g.Degree(v)
		}
	}
	nextSlab := make([]int, total)
	entrySlab := make([]int, total)
	at := 0
	for c := 0; c < k; c++ {
		d := q.Degree[c]
		q.Next[c] = nextSlab[at : at+d : at+d]
		q.EntryPort[c] = entrySlab[at : at+d : at+d]
		at += d
		for p := 0; p < d; p++ {
			to, ep := g.Succ(rep[c], p)
			q.Next[c][p] = class[to]
			q.EntryPort[c][p] = ep
		}
	}
	return q
}

// States returns the number of quotient states (distinct views).
func (q *Quotient) States() int { return len(q.Degree) }

// String renders the automaton compactly, one class per line.
func (q *Quotient) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "quotient with %d state(s)\n", q.States())
	for c := 0; c < q.States(); c++ {
		fmt.Fprintf(&b, "  class %d (deg %d, fiber %d):", c, q.Degree[c], q.Size[c])
		for p := 0; p < q.Degree[c]; p++ {
			fmt.Fprintf(&b, " %d->%d/%d", p, q.Next[c][p], q.EntryPort[c][p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
