package view

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/graph"
	"repro/internal/simtest"
)

func TestQuotientRing(t *testing.T) {
	g := graph.Cycle(8)
	q := NewQuotient(g)
	if q.States() != 1 {
		t.Fatalf("ring quotient has %d states", q.States())
	}
	if err := q.Consistent(g); err != nil {
		t.Fatal(err)
	}
	if q.Size[0] != 8 || q.Degree[0] != 2 {
		t.Fatalf("ring quotient state wrong: %+v", q)
	}
	// Self-loop transitions: the single class maps to itself.
	if q.Next[0][0] != 0 || q.Next[0][1] != 0 {
		t.Fatal("ring quotient transitions wrong")
	}
}

func TestQuotientSymmetricTree(t *testing.T) {
	shape := graph.FullShape(2, 2)
	g := graph.SymmetricTree(shape)
	q := NewQuotient(g)
	if err := q.Consistent(g); err != nil {
		t.Fatal(err)
	}
	// Each mirror pair shares a class: classes = n/2... only if no other
	// coincidences; for the full binary shape the two children of a node
	// are also symmetric, so classes < n/2. Just check fibers are even.
	for c, s := range q.Size {
		if s%2 != 0 {
			t.Fatalf("class %d has odd fiber %d", c, s)
		}
	}
}

func TestQuotientWalkProjection(t *testing.T) {
	// Walks project: α applied in the graph lands in the class of
	// α applied in the quotient.
	g := graph.SymmetricTree(graph.ChainShape(2))
	q := NewQuotient(g)
	for _, alpha := range [][]int{{0}, {0, 0}, {1, 0}, {0, 1, 0}} {
		for v := 0; v < g.N(); v++ {
			end, err := simtest.Apply(g, v, alpha)
			if err != nil {
				continue // out-of-range port at some node: skip
			}
			qc, err := q.Walk(q.Class[v], alpha)
			if err != nil {
				t.Fatalf("quotient rejected a walk the graph accepted: %v", err)
			}
			if q.Class[end] != qc {
				t.Fatalf("projection broken at v=%d α=%v", v, alpha)
			}
		}
	}
	if _, err := q.Walk(0, []int{99}); err == nil {
		t.Fatal("quotient accepted invalid port")
	}
}

func TestQuotientRandomGraphsConsistent(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%10)
		g := graph.RandomConnected(n, 0, seed)
		q := NewQuotient(g)
		return q.Consistent(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotientQhatCollapses(t *testing.T) {
	// Q̂h is fully symmetric: the quotient is a single state with four
	// self-loops, whatever h.
	g, _ := graph.Qhat(3)
	q := NewQuotient(g)
	if q.States() != 1 || q.Degree[0] != 4 {
		t.Fatalf("qhat quotient: %d states, degree %v", q.States(), q.Degree)
	}
	if !strings.Contains(q.String(), "1 state(s)") {
		t.Fatalf("string rendering: %q", q.String())
	}
}

func TestQuotientNewFamilies(t *testing.T) {
	// Circulant and CCC labelings are vertex-transitive by construction.
	if q := NewQuotient(graph.Circulant(9, []int{1, 2})); q.States() != 1 {
		t.Fatalf("circulant quotient states %d", q.States())
	}
	if q := NewQuotient(graph.CubeConnectedCycles(3)); q.States() != 1 {
		t.Fatalf("ccc quotient states %d", q.States())
	}
	// Petersen with this explicit labeling: check consistency at least.
	g := graph.Petersen()
	if err := NewQuotient(g).Consistent(g); err != nil {
		t.Fatal(err)
	}
}

// Walk projects a port sequence from a class and returns the final class.
func (q *Quotient) Walk(from int, ports []int) (int, error) {
	cur := from
	for i, p := range ports {
		if p < 0 || p >= q.Degree[cur] {
			return 0, fmt.Errorf("view: quotient walk step %d: port %d out of range (degree %d)", i, p, q.Degree[cur])
		}
		cur = q.Next[cur][p]
	}
	return cur, nil
}

// Consistent checks the defining property against the graph: every node's
// transitions agree with its class's transitions. It is used by tests and
// costs one pass over the edges.
func (q *Quotient) Consistent(g *graph.Graph) error {
	for v := 0; v < g.N(); v++ {
		c := q.Class[v]
		if g.Degree(v) != q.Degree[c] {
			return fmt.Errorf("view: node %d degree %d != class degree %d", v, g.Degree(v), q.Degree[c])
		}
		for p := 0; p < g.Degree(v); p++ {
			to, ep := g.Succ(v, p)
			if q.Class[to] != q.Next[c][p] {
				return fmt.Errorf("view: node %d port %d: class %d != %d", v, p, q.Class[to], q.Next[c][p])
			}
			if ep != q.EntryPort[c][p] {
				return fmt.Errorf("view: node %d port %d: entry %d != %d", v, p, ep, q.EntryPort[c][p])
			}
		}
	}
	total := 0
	for _, s := range q.Size {
		total += s
	}
	if total != g.N() {
		return fmt.Errorf("view: fiber sizes sum to %d, want %d", total, g.N())
	}
	return nil
}
