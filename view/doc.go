// Package view implements the views of Yamashita & Kameda used throughout
// the paper's preliminaries: the view V(v,G) from a node v is the infinite
// tree of all paths starting at v, coded as sequences of port numbers.
//
// Two nodes are symmetric when their views are equal. By Norris' theorem,
// views of two nodes of an n-node graph are equal iff they are equal when
// truncated to depth n-1, so symmetry is decidable; the package decides it
// in polynomial time with port-aware partition refinement (Classes, with a
// reusable zero-allocation Refiner behind it) and also provides explicit
// truncated view trees with a canonical encoding (shared by the simulated
// agents in package rendezvous, which build the same trees by physically
// exploring).
//
// # Flat representation
//
// Truncated views are stored index-based, not pointer-based: a Tree owns
// one []Node slab plus one []int32 kid arena, and nodes reference each
// other by int32 index into the slab. The invariants:
//
//   - Node 0 is the root; it is created first and its EntryPort is -1.
//   - Every other node's EntryPort is the port by which the unique path
//     from the root enters it (>= 0).
//   - A node's Kids field is either NoKids (the node was never expanded —
//     the truncation-depth frontier) or the base of exactly Deg contiguous
//     slots in the kid arena. Slot p holds the index of the subtree reached
//     through outgoing port p, or Frontier if that subtree was cut off
//     before being built (the budget-exhaustion frontier of a physical
//     walk under a wrong size hypothesis).
//   - Kid indices always point forward in the slab (a parent is created
//     before its children), so iteration over nodes is a pre-order
//     traversal and the structure is acyclic by construction.
//
// A Tree is reusable: Reset keeps both backing arrays, so a steady-state
// walk-encode loop (the AsymmRV hot path) performs no allocations.
//
// # Canonical encoding
//
// AppendEncode renders a canonical, self-delimiting binary encoding into a
// caller-supplied buffer: per node a uvarint of Deg<<1|hasKids and a
// uvarint of EntryPort+1, then (when hasKids) one marker byte per kid slot
// — 0x00 for a Frontier mark, 0x01 followed by the kid's encoding.
// Equal trees encode equally, different trees differ at some byte inside
// both encodings' common prefix (self-delimiting implies prefix-free), and
// every node costs at most a few bytes — comfortably below the
// encBytesPerNode bound package rendezvous sizes its label schedules with.
// Decode inverts the encoding exactly; encode/decode round-trips are
// pinned by property tests against the pointer-based reference
// implementation (RefNode / RefTruncated) kept for differential testing.
package view
