package view

import "repro/graph"

// This file keeps the original pointer-based view tree as an executable
// reference: RefTruncated defines the view the flat Tree must agree with,
// and Ref converts a flat tree for the comparison; the property tests here
// and package rendezvous's view-walk tests check the two against each
// other on random graphs. Nothing on a hot path uses these; they allocate
// per node by design (that cost is exactly why the flat representation
// replaced them).

// RefNode is one vertex of a pointer-based truncated view tree. The root
// has EntryPort -1; every other node records the port by which the path
// enters it. Kids[p] is the subtree reached by taking outgoing port p, or
// nil beyond the truncation depth.
type RefNode struct {
	Deg       int
	EntryPort int
	Kids      []*RefNode
}

// RefTruncated returns the view from v truncated to the given depth as a
// pointer tree (depth 0 = just the root's degree).
func RefTruncated(g *graph.Graph, v, depth int) *RefNode {
	var rec func(node, entry, d int) *RefNode
	rec = func(node, entry, d int) *RefNode {
		nd := &RefNode{Deg: g.Degree(node), EntryPort: entry}
		if d == 0 {
			return nd
		}
		nd.Kids = make([]*RefNode, nd.Deg)
		for p := 0; p < nd.Deg; p++ {
			to, ep := g.Succ(node, p)
			nd.Kids[p] = rec(to, ep, d-1)
		}
		return nd
	}
	return rec(v, -1, depth)
}

// Ref converts a flat tree into the equivalent pointer tree — the bridge
// the differential tests use.
func (t *Tree) Ref() *RefNode {
	if t.Len() == 0 {
		return nil
	}
	return t.refAt(0)
}

func (t *Tree) refAt(id int32) *RefNode {
	nd := t.At(id)
	out := &RefNode{Deg: int(nd.Deg), EntryPort: int(nd.EntryPort)}
	if nd.Kids == NoKids {
		return out
	}
	out.Kids = make([]*RefNode, nd.Deg)
	for p, k := range t.KidsOf(id) {
		if k != Frontier {
			out.Kids[p] = t.refAt(k)
		}
	}
	return out
}
