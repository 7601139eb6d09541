// Lowerbound: walks through Theorem 4.1's construction. It builds the
// graph Q̂h (Figure 1) — a tree ball with cardinal port labels, completed
// by leaf cycles into a 4-regular graph where every node's view is
// identical — verifies the properties the proof needs, enumerates the
// adversarial start set Z with its midpoints M(v), and prints the
// resulting exponential lower-bound curve.
//
//	go run ./examples/lowerbound
package main

import (
	"fmt"
	"log"
	"math/big"

	"repro/graph"
	"repro/shrink"
	"repro/view"
)

func main() {
	const k = 2
	D := 2 * k // initial distance of the adversarial STICs
	h := 2 * D // ball radius: agents cannot reach the leaf cycles in time
	g, info := graph.Qhat(h)
	fmt.Printf("built %s (h=%d): 4-regular, %d leaves per type in the underlying tree\n",
		g, h, info.X())

	if !view.AllSymmetric(g) {
		log.Fatal("construction broken: views differ")
	}
	fmt.Println("verified: every node has the same view — the adversary gets to hide anywhere")

	// The adversarial starts: v = γγ(r) for γ in {N,E}^k.
	z := graph.QhatZ(g, info.Root, k)
	dist := g.BFS(info.Root)
	fmt.Printf("\nZ (|Z| = %d): the later agent starts at distance D=%d from the root\n", len(z), D)
	for mask, v := range z {
		m := graph.QhatM(g, info.Root, k, mask)
		r, err := shrink.Shrink(g, info.Root, v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  γ=%s: v at dist %d, midpoint M(v) at dist %d, Shrink(r,v)=%d (STIC [(r,v),%d] feasible)\n",
			gammaString(mask, k), dist[v], dist[m], r.Value, D)
	}

	fmt.Println("\nthe counting argument: to solve every [(r,v),D] the agent from r must visit")
	fmt.Printf("half of the %d distinct midpoints — at least 2^(k-1) = %d distinct nodes — so any\n", 1<<k, 1<<(k-1))
	fmt.Println("algorithm needs time exponential in the initial distance D:")
	fmt.Println("\n  k   D=2k  h=2D  n=2*3^h-1             bound 2^(k-1)")
	for kk := 1; kk <= 10; kk++ {
		// n = 2·3^(4k) − 1 outgrows uint64 at k = 10.
		n := new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(4*kk)), nil)
		n.Lsh(n, 1).Sub(n, big.NewInt(1))
		fmt.Printf("  %-3d %-5d %-5d %-21d %d\n", kk, 2*kk, 4*kk, n, 1<<(kk-1))
	}
	fmt.Println("\nsince dist >= Shrink, rendezvous time is also exponential in Shrink(u,v):")
	fmt.Println("the (n-1)^d factor in SymmRV's T(n,d,δ) is not an artifact of the algorithm.")
}

func gammaString(mask, k int) string {
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
