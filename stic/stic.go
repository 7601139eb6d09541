// Package stic implements the paper's space-time initial configurations
// and their feasibility characterization (Corollary 3.1): a STIC
// [(u,v), δ] is feasible — some deterministic algorithm, even one
// dedicated to this configuration, achieves rendezvous — iff u and v are
// nonsymmetric, or they are symmetric and δ >= Shrink(u,v).
//
// Besides the polynomial-time classifier built on packages view and
// shrink, the package provides two independent verification tools for the
// impossibility direction (Lemma 3.1): an exhaustive breadth-first search
// over all oblivious action words (exact on port-homogeneous graphs, where
// the percept stream carries no information and hence every algorithm is
// equivalent to such a word — the argument of Theorem 4.1), and suite
// generators for the experiment harness. One BFS serves both word
// searches: SearchObliviousWord asks it about one STIC, SearchCommonWord
// about a family sharing graph, earlier start and delay (Theorem 4.1's
// adversarial family).
package stic

import (
	"fmt"
	"sync"

	"repro/graph"
	"repro/shrink"
	"repro/view"
)

// STIC is a space-time initial configuration [(u, v), δ].
type STIC struct {
	G     *graph.Graph
	U, V  int
	Delay uint64
}

func (s STIC) String() string {
	return fmt.Sprintf("[(%d,%d), δ=%d] in %s", s.U, s.V, s.Delay, s.G)
}

// Report is the outcome of classifying a STIC.
type Report struct {
	Symmetric bool
	// Shrink is Shrink(u,v) when Symmetric, else 0.
	Shrink int
	// Feasible per Corollary 3.1.
	Feasible bool
}

func (r Report) String() string {
	switch {
	case !r.Symmetric:
		return "nonsymmetric: feasible for every delay"
	case r.Feasible:
		return fmt.Sprintf("symmetric, Shrink=%d: feasible (δ >= Shrink)", r.Shrink)
	default:
		return fmt.Sprintf("symmetric, Shrink=%d: infeasible (δ < Shrink)", r.Shrink)
	}
}

// Classifier is the scratch-threaded classifier: it keeps the view
// refiner and the shrink workspace's search buffers warm, so classifying
// many STICs — the experiment sweeps classify one per case or per agent
// pair — allocates nothing in steady state. Only the view partition is
// cached per graph; each Shrink query searches afresh. Not safe for
// concurrent use; give each sweep worker its own (via sim's
// Scratch.Stash, or a local).
type Classifier struct {
	ref view.Refiner
	ws  shrink.Workspace
	// classes caches the view partition by graph identity (graphs are
	// immutable), so classifying many pairs of one graph — the k-agent
	// experiments check every agent pair — runs the refinement once.
	classes  []int
	classesG *graph.Graph
}

// Classify decides feasibility of the STIC by Corollary 3.1, reusing the
// classifier's buffers.
func (c *Classifier) Classify(s STIC) Report {
	if s.U == s.V {
		// Degenerate: the agents start co-located and meet at the later
		// appearance; treat as feasible and symmetric with Shrink 0.
		return Report{Symmetric: true, Shrink: 0, Feasible: true}
	}
	if c.classesG != s.G {
		c.classes = c.ref.Classes(s.G)
		c.classesG = s.G
	}
	if c.classes[s.U] != c.classes[s.V] {
		return Report{Symmetric: false, Feasible: true}
	}
	v := c.ws.Value(s.G, s.U, s.V)
	return Report{Symmetric: true, Shrink: v, Feasible: s.Delay >= uint64(v)}
}

// classifierPool recycles Classifiers behind the package-level Classify,
// so even one-shot call sites stop allocating once the pool is warm.
var classifierPool = sync.Pool{New: func() any { return new(Classifier) }}

// Classify decides feasibility of the STIC by Corollary 3.1.
func Classify(s STIC) Report {
	c := classifierPool.Get().(*Classifier)
	rep := c.Classify(s)
	classifierPool.Put(c)
	return rep
}

// PortHomogeneous reports whether the graph is regular with all views
// identical. On such graphs an agent's percept stream is independent of
// its behavior, so every deterministic algorithm is equivalent to an
// oblivious action word — the reduction used by Theorem 4.1 and required
// for SearchObliviousWord to be an exact decision procedure over all
// algorithms.
func PortHomogeneous(g *graph.Graph) bool {
	if reg, _ := g.IsRegular(); !reg {
		return false
	}
	return view.AllSymmetric(g)
}
