package view

import (
	"encoding/binary"
	"fmt"

	"repro/graph"
)

// Node is one vertex of a flat truncated view tree (see the package
// comment for the invariants). The zero value is not meaningful on its
// own; nodes are created through Tree.NewNode.
type Node struct {
	Deg       int32
	EntryPort int32 // -1 at the root, the entering port elsewhere
	Kids      int32 // base index into the kid arena, or NoKids
}

const (
	// NoKids marks a node that was never expanded: the truncation-depth
	// frontier, encoded distinctly from an expanded node whose subtrees
	// were cut off.
	NoKids = int32(-1)
	// Frontier marks a kid slot whose subtree was cut off before being
	// built (the '*' of the legacy text encoding).
	Frontier = int32(-1)
)

// Tree is a flat, arena-backed truncated view tree: one node slab plus one
// kid-index arena, reusable across builds via Reset.
type Tree struct {
	nodes []Node
	kids  []int32
}

// Reset empties the tree, keeping both backing arrays for reuse.
func (t *Tree) Reset() {
	t.nodes = t.nodes[:0]
	t.kids = t.kids[:0]
}

// Len returns the number of nodes in the slab.
func (t *Tree) Len() int { return len(t.nodes) }

// At returns node id by value. The root is node 0.
func (t *Tree) At(id int32) Node { return t.nodes[id] }

// NewNode appends a node with no kid arena and returns its index.
func (t *Tree) NewNode(deg, entry int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, Node{Deg: deg, EntryPort: entry, Kids: NoKids})
	return id
}

// Expand allocates node id's Deg kid slots, all initialized to Frontier.
// It must be called at most once per node.
func (t *Tree) Expand(id int32) {
	nd := &t.nodes[id]
	nd.Kids = int32(len(t.kids))
	for i := int32(0); i < nd.Deg; i++ {
		t.kids = append(t.kids, Frontier)
	}
}

// SetKid records kid as the subtree reached through port p of node id.
func (t *Tree) SetKid(id int32, p int, kid int32) {
	t.kids[t.nodes[id].Kids+int32(p)] = kid
}

// SetInfo fills in node id's degree and entry port after the fact. The
// physical view walker creates nodes ahead of their percepts — with
// batched scripts, a node's degree and entry port arrive only in the
// grant of the batch that first visited it — and patches them here.
// Expand must not be called before the node's true degree is set.
func (t *Tree) SetInfo(id int32, deg, entry int32) {
	nd := &t.nodes[id]
	nd.Deg, nd.EntryPort = deg, entry
}

// CopyFrom replaces t's contents with a structural copy of src, reusing
// t's backing arrays (warm trees copy allocation-free). Node ids carry
// over verbatim.
func (t *Tree) CopyFrom(src *Tree) {
	t.nodes = append(t.nodes[:0], src.nodes...)
	t.kids = append(t.kids[:0], src.kids...)
}

// KidsOf returns node id's kid slots as a slice into the arena (nil when
// the node was never expanded). The slice is valid until the next Expand
// or Reset.
func (t *Tree) KidsOf(id int32) []int32 {
	nd := &t.nodes[id]
	if nd.Kids == NoKids {
		return nil
	}
	return t.kids[nd.Kids : nd.Kids+nd.Deg]
}

// treeBuilder carries the recursion state of Build without a closure, so
// steady-state rebuilds into a warm Tree allocate nothing.
type treeBuilder struct {
	g *graph.Graph
	t *Tree
}

func (b *treeBuilder) rec(node, entry, d int) int32 {
	id := b.t.NewNode(int32(b.g.Degree(node)), int32(entry))
	if d == 0 {
		return id
	}
	b.t.Expand(id)
	deg := b.g.Degree(node)
	for p := 0; p < deg; p++ {
		to, ep := b.g.Succ(node, p)
		b.t.SetKid(id, p, b.rec(to, ep, d-1))
	}
	return id
}

// Build replaces the tree's contents with the view from v truncated to the
// given depth (depth 0 = just the root's degree).
func (t *Tree) Build(g *graph.Graph, v, depth int) {
	t.Reset()
	b := treeBuilder{g: g, t: t}
	b.rec(v, -1, depth)
}

// AppendEncode appends the tree's canonical binary encoding to dst and
// returns the extended buffer (see the package comment for the format).
// With a warm dst (and a non-empty tree) it performs no allocations.
func (t *Tree) AppendEncode(dst []byte) []byte {
	if len(t.nodes) == 0 {
		return dst
	}
	return t.appendNode(dst, 0)
}

func (t *Tree) appendNode(dst []byte, id int32) []byte {
	nd := &t.nodes[id]
	hasKids := uint64(0)
	if nd.Kids != NoKids {
		hasKids = 1
	}
	dst = binary.AppendUvarint(dst, uint64(nd.Deg)<<1|hasKids)
	dst = binary.AppendUvarint(dst, uint64(nd.EntryPort+1))
	if hasKids == 1 {
		for _, k := range t.kids[nd.Kids : nd.Kids+nd.Deg] {
			if k == Frontier {
				dst = append(dst, 0)
			} else {
				dst = append(dst, 1)
				dst = t.appendNode(dst, k)
			}
		}
	}
	return dst
}

// maxDecodeDeg bounds per-node degrees accepted by Decode, so corrupt
// input cannot request a giant arena before the length check catches it.
const maxDecodeDeg = 1 << 24

// Decode replaces the tree's contents with the tree serialized in data,
// which must be exactly one AppendEncode image (no trailing bytes).
func (t *Tree) Decode(data []byte) error {
	t.Reset()
	rest, _, err := t.decodeNode(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("view: %d trailing bytes after tree encoding", len(rest))
	}
	return nil
}

func (t *Tree) decodeNode(data []byte) ([]byte, int32, error) {
	head, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, 0, fmt.Errorf("view: truncated node header")
	}
	data = data[k:]
	entryRaw, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, 0, fmt.Errorf("view: truncated entry port")
	}
	data = data[k:]
	deg := head >> 1
	if deg > maxDecodeDeg {
		return nil, 0, fmt.Errorf("view: degree %d exceeds decode bound", deg)
	}
	if entryRaw > maxDecodeDeg {
		return nil, 0, fmt.Errorf("view: entry port %d exceeds decode bound", entryRaw)
	}
	if head&1 == 1 && deg > uint64(len(data)) {
		// An expanded node is followed by one marker byte per kid slot, so
		// a valid encoding always has >= deg bytes left. Checking before
		// Expand keeps a few corrupt bytes from demanding a huge arena.
		return nil, 0, fmt.Errorf("view: degree %d exceeds remaining input (%d bytes)", deg, len(data))
	}
	id := t.NewNode(int32(deg), int32(entryRaw)-1)
	if head&1 == 1 {
		t.Expand(id)
		for p := 0; p < int(deg); p++ {
			if len(data) == 0 {
				return nil, 0, fmt.Errorf("view: truncated kid marker")
			}
			marker := data[0]
			data = data[1:]
			switch marker {
			case 0:
				// Frontier mark; the slot stays Frontier.
			case 1:
				var kid int32
				var err error
				data, kid, err = t.decodeNode(data)
				if err != nil {
					return nil, 0, err
				}
				t.SetKid(id, p, kid)
			default:
				return nil, 0, fmt.Errorf("view: bad kid marker 0x%02x", marker)
			}
		}
	}
	return data, id, nil
}
