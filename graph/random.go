package graph

import (
	"fmt"

	"repro/internal/rng"
)

// RandomConnected returns a pseudorandom simple connected graph with n
// nodes and extra additional edges beyond a random spanning tree, with
// uniformly shuffled port assignments. The construction is deterministic
// in seed, so benchmark workloads are reproducible. Such graphs are almost
// always view-asymmetric, which makes them the standard workload for the
// AsymmRV experiments (E6).
func RandomConnected(n, extra int, seed uint64) *Graph {
	if n < 2 {
		panic("graph: RandomConnected requires n >= 2")
	}
	maxExtra := n*(n-1)/2 - (n - 1)
	if extra < 0 || extra > maxExtra {
		panic(fmt.Sprintf("graph: extra must be in [0, %d] for n=%d", maxExtra, n))
	}
	r := rng.New(seed)

	// Random spanning tree over a random node permutation: attach each new
	// node to a uniformly chosen existing one.
	perm := r.Perm(n)
	has := make(map[[2]int]bool, n-1+extra)
	var edges [][2]int
	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if has[key] {
			return false
		}
		has[key] = true
		edges = append(edges, key)
		return true
	}
	for i := 1; i < n; i++ {
		addEdge(perm[i], perm[r.Intn(i)])
	}
	for added := 0; added < extra; {
		if addEdge(r.Intn(n), r.Intn(n)) {
			added++
		}
	}

	// Assign random port numbers: shuffle each node's incident edge list.
	incident := make([][]int, n) // edge indices
	for ei, e := range edges {
		incident[e[0]] = append(incident[e[0]], ei)
		incident[e[1]] = append(incident[e[1]], ei)
	}
	adj := make([][]Half, n)
	portOf := make([]map[int]int, n) // node -> edge index -> port
	for v := 0; v < n; v++ {
		portOf[v] = make(map[int]int, len(incident[v]))
		p := r.Perm(len(incident[v]))
		for slot, which := range p {
			portOf[v][incident[v][which]] = slot
		}
		adj[v] = make([]Half, len(incident[v]))
	}
	for ei, e := range edges {
		u, v := e[0], e[1]
		pu, pv := portOf[u][ei], portOf[v][ei]
		adj[u][pu] = Half{To: v, ToPort: pv}
		adj[v][pv] = Half{To: u, ToPort: pu}
	}
	g := &Graph{adj: adj, name: fmt.Sprintf("random-%d-%d-seed%d", n, extra, seed)}
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("graph: RandomConnected produced invalid graph: %v", err))
	}
	return g
}
