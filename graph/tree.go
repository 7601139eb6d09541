package graph

import (
	"fmt"
	"strings"
)

// Shape describes the shape of a rooted tree: a node with zero or more
// child subtrees. Shapes drive the tree builders below.
type Shape struct {
	Kids []Shape
}

// Size returns the number of nodes in the shape.
func (s Shape) Size() int {
	n := 1
	for _, k := range s.Kids {
		n += k.Size()
	}
	return n
}

// String renders the shape in balanced-parenthesis notation, e.g. "(()())".
func (s Shape) String() string {
	var b strings.Builder
	var rec func(Shape)
	rec = func(t Shape) {
		b.WriteByte('(')
		for _, k := range t.Kids {
			rec(k)
		}
		b.WriteByte(')')
	}
	rec(s)
	return b.String()
}

// ChainShape returns a path-shaped tree of the given depth (depth edges,
// depth+1 nodes).
func ChainShape(depth int) Shape {
	s := Shape{}
	for i := 0; i < depth; i++ {
		s = Shape{Kids: []Shape{s}}
	}
	return s
}

// FullShape returns the complete b-ary tree of the given depth.
func FullShape(branching, depth int) Shape {
	if depth == 0 {
		return Shape{}
	}
	kids := make([]Shape, branching)
	for i := range kids {
		kids[i] = FullShape(branching, depth-1)
	}
	return Shape{Kids: kids}
}

// Tree builds a single rooted tree from shape. The root's children occupy
// ports 0..k-1 in shape order; at every other node port 0 leads to the
// parent and ports 1..k lead to the children. Node 0 is the root; children
// are numbered in preorder. Trees with irregular shapes give nonsymmetric
// initial positions for the AsymmRV experiments.
func Tree(shape Shape) *Graph {
	b := NewBuilder(shape.Size()).Name(fmt.Sprintf("tree-%s", shape))
	next := 1
	var rec func(parent int, s Shape)
	rec = func(parent int, s Shape) {
		for i, k := range s.Kids {
			child := next
			next++
			parentPort := i
			if parent != 0 {
				parentPort = i + 1 // port 0 is the parent link
			}
			b.ConnectPorts(parent, parentPort, child, 0)
			rec(child, k)
		}
	}
	rec(0, shape)
	return b.MustBuild()
}

// SymmetricTree builds the paper's canonical symmetric-position family: a
// central edge with two port-preserving isomorphic copies of shape attached
// to its ends. Port 0 at each copy's root is the central edge; ports 1..k
// are the children; at deeper nodes port 0 is the parent link.
//
// The two roots (and every mirrored pair of nodes) are symmetric, yet
// Shrink(u, v) = 1 for every symmetric pair, however distant — the paper's
// second worked example after Definition 3.1.
func SymmetricTree(shape Shape) *Graph {
	size := shape.Size()
	b := NewBuilder(2 * size).Name(fmt.Sprintf("symtree-%s", shape))
	b.ConnectPorts(0, 0, size, 0) // central edge between the two roots
	for copyIdx := 0; copyIdx < 2; copyIdx++ {
		base := copyIdx * size
		next := base + 1
		var rec func(parent int, s Shape)
		rec = func(parent int, s Shape) {
			for i, k := range s.Kids {
				child := next
				next++
				b.ConnectPorts(parent, i+1, child, 0) // port 0 everywhere = parent/central
				rec(child, k)
			}
		}
		rec(base, shape)
	}
	return b.MustBuild()
}

// SymmetricTreeMirror returns the node symmetric to v in a graph built by
// SymmetricTree(shape): nodes v and Mirror(v) have identical views.
func SymmetricTreeMirror(shape Shape, v int) int {
	size := shape.Size()
	if v < size {
		return v + size
	}
	return v - size
}
