// Command shrinktool analyzes the symmetry structure of an anonymous
// port-labeled graph: view classes, symmetric pairs with their Shrink
// values, and — given a pair and delay — the feasibility verdict of
// Corollary 3.1 with a witness port sequence for Shrink.
//
// Usage:
//
//	shrinktool -graph symtree-chain:3            # full symmetry report
//	shrinktool -graph ring:8 -u 0 -v 3 -delay 2  # one STIC verdict
//	shrinktool -graph torus:4,4 -pairs           # all pairs with Shrink
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/graph"
	"repro/shrink"
	"repro/stic"
	"repro/view"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shrinktool:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		spec     = flag.String("graph", "ring:6", "graph spec (see graph.FromSpec)")
		file     = flag.String("file", "", "read the graph from a file instead of -graph")
		u        = flag.Int("u", -1, "first node of a pair to analyze")
		v        = flag.Int("v", -1, "second node of a pair to analyze")
		delay    = flag.Uint64("delay", 0, "delay for the feasibility verdict")
		pairs    = flag.Bool("pairs", false, "list every symmetric pair with its Shrink")
		quotient = flag.Bool("quotient", false, "print the quotient (minimum base) automaton")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	if *file != "" {
		data, rerr := os.ReadFile(*file)
		if rerr != nil {
			return rerr
		}
		g, err = graph.Decode(string(data))
	} else {
		g, err = graph.FromSpec(*spec)
	}
	if err != nil {
		return err
	}

	classes := view.Classes(g)
	counts := map[int]int{}
	for _, c := range classes {
		counts[c]++
	}
	fmt.Printf("graph: %s\nview classes: %d", g, len(counts))
	if len(counts) == 1 {
		fmt.Printf(" (all nodes symmetric)")
	}
	fmt.Println()

	if *u >= 0 && *v >= 0 {
		if *u >= g.N() || *v >= g.N() {
			return fmt.Errorf("nodes must be in [0,%d)", g.N())
		}
		s := stic.STIC{G: g, U: *u, V: *v, Delay: *delay}
		rep := stic.Classify(s)
		fmt.Printf("STIC %s: %s\n", s, rep)
		if rep.Symmetric && *u != *v {
			r, err := shrink.Shrink(g, *u, *v)
			if err != nil {
				return err
			}
			fmt.Printf("Shrink witness α = %v brings the agents to nodes %d and %d (distance %d)\n",
				r.Alpha, r.AU, r.AV, r.Value)
		}
		return nil
	}

	if *quotient {
		fmt.Print(view.NewQuotient(g))
	}

	if *pairs {
		dist := shrink.AllPairsDist(g)
		var ws shrink.Workspace
		fmt.Println("symmetric pairs (u, v): dist, Shrink")
		for _, pr := range stic.SymmetricPairs(g) {
			fmt.Printf("  (%d,%d): dist=%d Shrink=%d\n", pr[0], pr[1], dist[pr[0]][pr[1]], ws.Value(g, pr[0], pr[1]))
		}
		ns := stic.NonsymmetricPairs(g)
		fmt.Printf("nonsymmetric pairs: %d (feasible with every delay)\n", len(ns))
		return nil
	}

	sp := stic.SymmetricPairs(g)
	fmt.Printf("symmetric pairs: %d; nonsymmetric pairs: %d\n", len(sp), g.N()*(g.N()-1)/2-len(sp))
	fmt.Println("use -pairs for the full list, or -u/-v/-delay for one verdict")
	return nil
}
