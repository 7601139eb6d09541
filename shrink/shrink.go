// Package shrink computes the paper's central quantity Shrink(u,v)
// (Definition 3.1): for a symmetric pair of nodes u, v, the smallest
// distance between α(u) and α(v) over all sequences α of port numbers —
// the closest two view-indistinguishable agents can be brought by executing
// identical moves.
//
// The computation runs BFS on the pair-product graph: states are ordered
// pairs (a, b) with transitions (a, b) -> (succ(a,p), succ(b,p)) for every
// port p. Starting from a symmetric pair, every reachable pair is symmetric
// (so degrees always match), and Shrink is the minimum graph distance over
// reachable states. The search stops at its floor: 0 when u = v, and 1
// otherwise. Two distinct nodes with equal views that take the same port p
// enter their targets by the same port q; port q of a node leads to one
// node, so the two never land together. The search keeps one map entry per
// pair it visits before it stops, plus O(n) for the bounded BFS that
// measures each new pair's distance; it builds no n x n table. This also
// decides STIC feasibility exactly (Corollary 3.1): a symmetric STIC
// [(u,v), δ] is feasible iff δ >= Shrink(u,v).
package shrink

import (
	"fmt"
	"slices"

	"repro/graph"
	"repro/view"
)

// Result carries the value of Shrink(u,v) together with a witness.
type Result struct {
	Value int   // Shrink(u,v)
	Alpha []int // a port sequence α with dist(α(u), α(v)) == Value
	AU    int   // α(u)
	AV    int   // α(v)
}

// ErrNotSymmetric is returned when Shrink is requested for a pair of nodes
// with different views; the paper defines Shrink for symmetric pairs only.
type ErrNotSymmetric struct{ U, V int }

func (e ErrNotSymmetric) Error() string {
	return fmt.Sprintf("shrink: nodes %d and %d are not symmetric", e.U, e.V)
}

// AllPairsDist returns the n x n matrix of graph distances.
func AllPairsDist(g *graph.Graph) [][]int32 {
	n := g.N()
	d := make([][]int32, n)
	for v := 0; v < n; v++ {
		row := make([]int32, n)
		for i, x := range g.BFS(v) {
			row[i] = int32(x)
		}
		d[v] = row
	}
	return d
}

// Shrink computes Shrink(u,v) for a symmetric pair. It returns
// ErrNotSymmetric if the views of u and v differ.
func Shrink(g *graph.Graph, u, v int) (Result, error) {
	if !view.Symmetric(g, u, v) {
		return Result{}, ErrNotSymmetric{U: u, V: v}
	}
	var ws Workspace
	value, at := ws.search(g, u, v)
	// Read the witness α off the parent links, last port first.
	maxDeg := int64(g.MaxDegree())
	var alpha []int
	for link := ws.parent[at]; link >= 0; link = ws.parent[link/maxDeg] {
		alpha = append(alpha, int(link%maxDeg))
	}
	slices.Reverse(alpha)
	n := int64(g.N())
	return Result{Value: value, Alpha: alpha, AU: int(at / n), AV: int(at % n)}, nil
}

// Workspace holds the reusable buffers of Shrink searches: the
// pair-product BFS queue, the visited pairs with their parent links, and
// the queue and marks of the bounded distance BFS. None is sized n², and
// the visited map is cleared rather than reallocated, so sweeps that
// classify many STICs keep one Workspace per worker (stic.Classifier
// embeds one) and steady-state queries allocate nothing. Not safe for
// concurrent use.
type Workspace struct {
	queue  []int64         // pair-product BFS queue of states a*n + b
	parent map[int64]int64 // visited state -> parent state*maxDeg + port, or -1
	front  []int32         // bounded distance BFS queue
	marked []bool          // nodes the bounded BFS reached; all false between calls
}

// Value computes Shrink(u,v) for a symmetric pair of g without
// constructing a witness sequence, reusing the workspace's buffers. It
// does not re-check symmetry; callers must pass a symmetric pair.
func (ws *Workspace) Value(g *graph.Graph, u, v int) int {
	value, _ := ws.search(g, u, v)
	return value
}

// search runs BFS over the pair-product graph from (u, v) and returns the
// smallest distance it found with the first state (a*n + b) found at that
// distance; ws.parent then links that state back to the start. It stops
// once the distance reaches its floor (see the package comment).
func (ws *Workspace) search(g *graph.Graph, u, v int) (best int, at int64) {
	n, maxDeg := int64(g.N()), int64(g.MaxDegree())
	floor := 1
	if u == v {
		floor = 0
	}
	if ws.parent == nil {
		ws.parent = make(map[int64]int64)
	}
	clear(ws.parent)
	at = int64(u)*n + int64(v)
	ws.parent[at] = -1
	ws.queue = append(ws.queue[:0], at)
	best = ws.distWithin(g, u, v, g.N())
	for qi := 0; qi < len(ws.queue) && best > floor; qi++ {
		s := ws.queue[qi]
		a, b := int(s/n), int(s%n)
		if g.Degree(a) != g.Degree(b) {
			// Unreachable for symmetric pairs; guard against misuse of
			// Value with a nonsymmetric pair.
			panic(fmt.Sprintf("shrink: degree mismatch at pair (%d,%d); input pair not symmetric", a, b))
		}
		for p := 0; p < g.Degree(a); p++ {
			ta, _ := g.Succ(a, p)
			tb, _ := g.Succ(b, p)
			ns := int64(ta)*n + int64(tb)
			if _, seen := ws.parent[ns]; seen {
				continue
			}
			ws.parent[ns] = s*maxDeg + int64(p)
			if d := ws.distWithin(g, ta, tb, best-1); d < best {
				best, at = d, ns
				if best == floor {
					break
				}
			}
			ws.queue = append(ws.queue, ns)
		}
	}
	return best, at
}

// distWithin returns dist(a, b) if it is at most limit, and limit+1
// otherwise, by a BFS from a that stops at depth limit.
func (ws *Workspace) distWithin(g *graph.Graph, a, b, limit int) int {
	if a == b {
		return 0
	}
	if len(ws.marked) < g.N() {
		ws.marked = make([]bool, g.N())
	}
	d := limit + 1
	ws.marked[a] = true
	ws.front = append(ws.front[:0], int32(a))
levels:
	for depth, lo := 1, 0; depth <= limit && lo < len(ws.front); depth++ {
		hi := len(ws.front)
		for _, x := range ws.front[lo:hi] {
			for _, h := range g.Adj(int(x)) {
				if h.To == b {
					d = depth
					break levels
				}
				if !ws.marked[h.To] {
					ws.marked[h.To] = true
					ws.front = append(ws.front, int32(h.To))
				}
			}
		}
		lo = hi
	}
	for _, x := range ws.front {
		ws.marked[x] = false
	}
	return d
}
