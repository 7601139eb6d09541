// Package graph implements the anonymous port-labeled graphs of Pelc &
// Yadav, "Using Time to Break Symmetry: Universal Deterministic Anonymous
// Rendezvous" (SPAA 2019).
//
// Graphs are simple, finite, undirected and connected. Nodes carry no labels
// visible to agents; at a node of degree d the incident edges are labeled by
// ports 0..d-1, with no coherence required between the two port numbers of
// an edge. Node indices exist only for the simulator and analysis tooling;
// the agent-facing API in packages agent and sim never exposes them.
package graph

import (
	"errors"
	"fmt"
)

// Half describes one endpoint view of an edge: the node reached through a
// port and the port number of the same edge at that node.
type Half struct {
	To     int // neighbor node index
	ToPort int // port number of this edge at the neighbor
}

// Graph is a simple undirected connected port-labeled graph.
//
// adj[v][p] is the half-edge reached by taking port p at node v. The
// invariant adj[adj[v][p].To][adj[v][p].ToPort] == {v, p} holds for every
// valid graph (checked by Validate).
type Graph struct {
	adj  [][]Half
	name string
}

// NewBuilder incrementally constructs a Graph with n nodes.
// Ports at each node are assigned in the order edges are added unless
// explicit ports are used via ConnectPorts.
type Builder struct {
	adj  [][]Half
	name string
}

// NewBuilder returns a Builder for a graph with n nodes and no edges.
func NewBuilder(n int) *Builder {
	return &Builder{adj: make([][]Half, n)}
}

// Name sets a human-readable name recorded on the built graph.
func (b *Builder) Name(name string) *Builder {
	b.name = name
	return b
}

// Connect adds an undirected edge {u, v}, assigning the next free port at
// each endpoint. It returns the port numbers assigned at u and v.
func (b *Builder) Connect(u, v int) (pu, pv int) {
	pu, pv = len(b.adj[u]), len(b.adj[v])
	b.adj[u] = append(b.adj[u], Half{To: v, ToPort: pv})
	b.adj[v] = append(b.adj[v], Half{To: u, ToPort: pu})
	return pu, pv
}

// ConnectPorts adds an undirected edge {u, v} using explicit port numbers
// pu at u and pv at v. Ports may be assigned out of order; any gaps must be
// filled before Build. Mixing ConnectPorts and Connect on the same node is
// not supported and will surface as a Build error.
func (b *Builder) ConnectPorts(u, pu, v, pv int) {
	grow := func(s []Half, p int) []Half {
		for len(s) <= p {
			s = append(s, Half{To: -1})
		}
		return s
	}
	b.adj[u] = grow(b.adj[u], pu)
	b.adj[v] = grow(b.adj[v], pv)
	b.adj[u][pu] = Half{To: v, ToPort: pv}
	b.adj[v][pv] = Half{To: u, ToPort: pu}
}

// Build finalizes the graph and validates it. It returns an error if the
// graph is not simple, not connected, or has inconsistent port labels.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{adj: b.adj, name: b.name}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build for known-good construction code; it panics on error.
// It is intended for the fixed builders in this package and for tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: invalid construction %q: %v", b.name, err))
	}
	return g
}

// N returns the number of nodes (the size of the graph).
func (g *Graph) N() int { return len(g.adj) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree over all nodes.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > m {
			m = d
		}
	}
	return m
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for v := range g.adj {
		total += len(g.adj[v])
	}
	return total / 2
}

// Succ returns the node reached by taking port p at node v, together with
// the port of the same edge at that node (the paper's succ(v, p), extended
// with the entry port the arriving agent perceives).
func (g *Graph) Succ(v, p int) (to, entryPort int) {
	h := g.adj[v][p]
	return h.To, h.ToPort
}

// Half returns the half-edge record for port p at node v.
func (g *Graph) Half(v, p int) Half { return g.adj[v][p] }

// Adj returns node v's half-edge row: Adj(v)[p] is the half-edge behind
// Succ(v, p), and len(Adj(v)) is the degree. The slice aliases the
// graph's internal storage and must not be modified; hot loops use it to
// resolve degree and successor with a single row lookup.
func (g *Graph) Adj(v int) []Half { return g.adj[v] }

// Validate checks the structural invariants: port reciprocity, simplicity
// (no self-loops, no parallel edges), and connectivity. Graphs produced by
// Builder.Build have already passed this check.
func (g *Graph) Validate() error {
	if len(g.adj) == 0 {
		return errors.New("graph: empty graph")
	}
	// seen[w] == v+1 marks w as a neighbour of v: one stamp slice for
	// every node instead of a set per node.
	seen := make([]int, len(g.adj))
	for v := range g.adj {
		for p, h := range g.adj[v] {
			if h.To < 0 || h.To >= len(g.adj) {
				return fmt.Errorf("graph: node %d port %d: missing or out-of-range endpoint %d", v, p, h.To)
			}
			if h.To == v {
				return fmt.Errorf("graph: node %d port %d: self-loop", v, p)
			}
			if seen[h.To] == v+1 {
				return fmt.Errorf("graph: parallel edge between %d and %d", v, h.To)
			}
			seen[h.To] = v + 1
			if h.ToPort < 0 || h.ToPort >= len(g.adj[h.To]) {
				return fmt.Errorf("graph: node %d port %d: reverse port %d out of range at node %d", v, p, h.ToPort, h.To)
			}
			back := g.adj[h.To][h.ToPort]
			if back.To != v || back.ToPort != p {
				return fmt.Errorf("graph: port reciprocity violated at node %d port %d", v, p)
			}
		}
	}
	if !g.Connected() {
		return errors.New("graph: not connected")
	}
	return nil
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return false
	}
	seen := make([]bool, len(g.adj))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	return count == len(g.adj)
}

// BFS returns the distance from src to every node (in edges). Unreachable
// nodes (impossible in a validated graph) get distance -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[v] {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// Dist returns the distance in edges between u and v.
func (g *Graph) Dist(u, v int) int { return g.BFS(u)[v] }

// Diameter returns the maximum distance between any pair of nodes.
func (g *Graph) Diameter() int {
	max := 0
	for v := range g.adj {
		for _, d := range g.BFS(v) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// IsRegular reports whether all nodes have the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	d := len(g.adj[0])
	for v := range g.adj {
		if len(g.adj[v]) != d {
			return false, 0
		}
	}
	return true, d
}

// String returns a short description like "ring-8 (n=8, m=8)".
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s (n=%d, m=%d)", name, g.N(), g.Edges())
}
