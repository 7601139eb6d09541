package graph

import "fmt"

// Cardinal port labels of the lower-bound family Q̂h (Section 4 of the
// paper). The paper labels ports N, S, E, W; we fix the numbering
// N=0, E=1, S=2, W=3 so that Opposite is p XOR 2 and every edge of Q̂h has
// ports N-S or E-W at its extremities.
const (
	PortN = 0
	PortE = 1
	PortS = 2
	PortW = 3
)

// Opposite returns the opposite cardinal port (N<->S, E<->W).
func Opposite(p int) int { return p ^ 2 }

// PortFromLetter returns the cardinal port for a letter in "NESW" (any
// case), or -1 if the byte is not a cardinal direction.
func PortFromLetter(c byte) int {
	switch c {
	case 'N', 'n':
		return PortN
	case 'E', 'e':
		return PortE
	case 'S', 's':
		return PortS
	case 'W', 'w':
		return PortW
	}
	return -1
}

// QhatInfo carries the structural metadata of a Q̂h instance that the
// lower-bound experiments need: the root and the per-type leaf lists in
// construction order (the paper's N1..Nx, S1..Sx, E1..Ex, W1..Wx).
type QhatInfo struct {
	Root   int
	Leaves [4][]int // indexed by leaf type PortN, PortE, PortS, PortW
}

// X returns the number of leaves of each type, x = 3^(h-1).
func (qi *QhatInfo) X() int { return len(qi.Leaves[PortN]) }

// QhSize returns the number of nodes of the tree Qh (and of Q̂h, which has
// the same node set): 2*3^h - 1.
func QhSize(h int) int {
	p := 1
	for i := 0; i < h; i++ {
		p *= 3
	}
	return 2*p - 1
}

// Qhat builds the graph Q̂h of the paper's Theorem 4.1: the 4-regular tree
// ball Qh of height h with cardinal port labels, completed by the
// prescribed matching and cycle edges between leaves so that every node
// has degree 4, every edge has ports N-S or E-W at its extremities, and
// all nodes have identical views. Requires h >= 2 (for h = 1 the paper's
// closing cycle edges degenerate to self-loops).
func Qhat(h int) (*Graph, *QhatInfo) {
	if h < 2 {
		panic("graph: Qhat requires h >= 2")
	}
	n := QhSize(h)
	b := NewBuilder(n).Name(fmt.Sprintf("qhat-%d", h))
	// Every node ends with degree 4, so the rows are carved from one
	// array and ConnectPorts fills them in place.
	halves := make([]Half, 4*n)
	for v := range b.adj {
		b.adj[v] = halves[4*v : 4*v : 4*v+4]
	}
	info := &QhatInfo{Root: 0}

	// Build the tree Qh in BFS order. parentPort[v] is the port at v of the
	// edge toward its parent (the opposite of the direction traveled), or
	// -1 for the root.
	type rec struct {
		id, depth, parentPort int
	}
	next := 1
	queue := []rec{{id: 0, depth: 0, parentPort: -1}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth == h {
			// A leaf's single tree port is its parent port; that label is
			// its type (the paper's "N type" leaf has single port N).
			t := cur.parentPort
			info.Leaves[t] = append(info.Leaves[t], cur.id)
			continue
		}
		for dir := 0; dir < 4; dir++ {
			if dir == cur.parentPort {
				continue
			}
			child := next
			next++
			b.ConnectPorts(cur.id, dir, child, Opposite(dir))
			queue = append(queue, rec{id: child, depth: cur.depth + 1, parentPort: Opposite(dir)})
		}
	}
	if next != n {
		panic(fmt.Sprintf("graph: Qhat size mismatch: built %d, expected %d", next, n))
	}

	x := info.X()
	N, E, S, W := info.Leaves[PortN], info.Leaves[PortE], info.Leaves[PortS], info.Leaves[PortW]

	// Matching edges: Ni-Si with port S at Ni and N at Si; Ei-Wi with port
	// W at Ei and E at Wi.
	for i := 0; i < x; i++ {
		b.ConnectPorts(N[i], PortS, S[i], PortN)
		b.ConnectPorts(E[i], PortW, W[i], PortE)
	}

	// cycleEdges adds the alternating cycle a1-b2-a3-...-bx-1-ax-a1 where a
	// and b are leaf lists of complementary types; along the cycle the
	// earlier endpoint gets port pEarly and the later one port pLate.
	// x = 3^(h-1) is odd, so the sequence ends at a_x and closes a_x-a_1.
	cycleEdges := func(a, bl []int, pEarly, pLate int) {
		seq := make([]int, x)
		for j := 0; j < x; j++ {
			if j%2 == 0 {
				seq[j] = a[j] // a1, a3, ... (1-based odd)
			} else {
				seq[j] = bl[j] // b2, b4, ... (1-based even)
			}
		}
		for j := 0; j+1 < x; j++ {
			b.ConnectPorts(seq[j], pEarly, seq[j+1], pLate)
		}
		b.ConnectPorts(seq[x-1], pEarly, seq[0], pLate)
	}
	cycleEdges(N, S, PortE, PortW) // N1-S2-N3-...-Nx-N1
	cycleEdges(S, N, PortE, PortW) // S1-N2-S3-...-Sx-S1
	cycleEdges(E, W, PortN, PortS) // E1-W2-E3-...-Ex-E1
	cycleEdges(W, E, PortN, PortS) // W1-E2-W3-...-Wx-W1

	return b.MustBuild(), info
}

// Navigate follows a word over the cardinal letters "NESW" from node start
// and returns the endpoint. It returns an error on a non-cardinal letter.
// Waits may be encoded as '.' and are skipped (position unchanged).
func Navigate(g *Graph, start int, word string) (int, error) {
	cur := start
	for i := 0; i < len(word); i++ {
		if word[i] == '.' {
			continue
		}
		p := PortFromLetter(word[i])
		if p < 0 {
			return 0, fmt.Errorf("graph: bad direction %q at byte %d", word[i], i)
		}
		if p >= g.Degree(cur) {
			return 0, fmt.Errorf("graph: port %d out of range at step %d", p, i)
		}
		to, _ := g.Succ(cur, p)
		cur = to
	}
	return cur, nil
}

// QhatZ enumerates the paper's set Z for distance D = 2k: all nodes
// v = (γ·γ)(r) where γ ranges over the 2^k words in {N, E}^k. The returned
// slice is indexed by the k-bit integer whose bit j (MSB first) selects E
// (bit 1) or N (bit 0) at position j of γ.
func QhatZ(g *Graph, root, k int) []int {
	z := make([]int, 1<<k)
	for mask := 0; mask < 1<<k; mask++ {
		gamma := gammaWord(mask, k)
		v, err := Navigate(g, root, gamma+gamma)
		if err != nil {
			panic(fmt.Sprintf("graph: QhatZ navigation failed: %v", err))
		}
		z[mask] = v
	}
	return z
}

// QhatM returns M(v) = γ(r) for the Z element selected by mask, the
// midpoint node of the paper's lower-bound argument.
func QhatM(g *Graph, root, k, mask int) int {
	v, err := Navigate(g, root, gammaWord(mask, k))
	if err != nil {
		panic(fmt.Sprintf("graph: QhatM navigation failed: %v", err))
	}
	return v
}

// gammaWord builds the {N,E}^k word selected by mask, MSB first.
func gammaWord(mask, k int) string {
	buf := make([]byte, k)
	for j := 0; j < k; j++ {
		if mask>>(k-1-j)&1 == 1 {
			buf[j] = 'E'
		} else {
			buf[j] = 'N'
		}
	}
	return string(buf)
}
