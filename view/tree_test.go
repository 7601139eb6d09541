package view

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/graph"
	"repro/internal/rng"
)

// randomTree builds a random flat tree (random degrees, entry ports,
// truncation frontiers of both kinds) plus the equivalent pointer tree —
// exercising shapes physical walks produce under wrong hypotheses, which
// graph-derived trees never show.
func randomTree(r *rng.RNG, t *Tree, maxDepth int) {
	t.Reset()
	var rec func(entry int32, d int) int32
	rec = func(entry int32, d int) int32 {
		deg := int32(1 + r.Intn(3))
		id := t.NewNode(deg, entry)
		if d == 0 || r.Intn(4) == 0 {
			return id // unexpanded: depth frontier
		}
		t.Expand(id)
		for p := int32(0); p < deg; p++ {
			if r.Intn(5) == 0 {
				continue // budget-cut frontier mark in this slot
			}
			t.SetKid(id, int(p), rec(p%deg, d-1))
		}
		return id
	}
	rec(-1, maxDepth)
}

// TestTreeEncodeDecodeRoundTrip: Decode(AppendEncode(t)) reproduces the
// tree exactly, and re-encoding reproduces the bytes — on random trees
// with both frontier kinds.
func TestTreeEncodeDecodeRoundTrip(t *testing.T) {
	var tr, back Tree
	var enc, enc2 []byte
	for seed := uint64(1); seed <= 400; seed++ {
		r := rng.New(seed)
		randomTree(r, &tr, 4)
		enc = tr.AppendEncode(enc[:0])
		if err := back.Decode(enc); err != nil {
			t.Fatalf("seed %d: decode failed: %v", seed, err)
		}
		if !Equal(&tr, &back) {
			t.Fatalf("seed %d: round-trip tree differs", seed)
		}
		enc2 = back.AppendEncode(enc2[:0])
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("seed %d: re-encoding differs", seed)
		}
	}
}

// TestTreeEncodeAgreesWithReference: on random trees, the binary encoder's
// equality semantics coincide byte-for-byte with the legacy text encoder —
// two trees get equal binary encodings iff they get equal RefEncode
// encodings (and both iff they are structurally equal).
func TestTreeEncodeAgreesWithReference(t *testing.T) {
	const trees = 60
	flats := make([]Tree, trees)
	encs := make([][]byte, trees)
	refs := make([][]byte, trees)
	for i := range flats {
		r := rng.New(uint64(1000 + i))
		randomTree(r, &flats[i], 3)
		encs[i] = flats[i].Encode()
		refs[i] = RefEncode(flats[i].Ref())
	}
	for i := 0; i < trees; i++ {
		for j := 0; j < trees; j++ {
			newEq := bytes.Equal(encs[i], encs[j])
			oldEq := bytes.Equal(refs[i], refs[j])
			if newEq != oldEq {
				t.Fatalf("trees %d,%d: binary equality %v but reference equality %v", i, j, newEq, oldEq)
			}
			if structEq := Equal(&flats[i], &flats[j]); structEq != newEq {
				t.Fatalf("trees %d,%d: structural equality %v but binary equality %v", i, j, structEq, newEq)
			}
		}
	}
}

// TestTruncatedAgreesWithReference: on random graphs, the flat Build
// produces exactly the tree the pointer-based reference builds.
func TestTruncatedAgreesWithReference(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw%7)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g := graph.RandomConnected(n, extra, seed)
		for v := 0; v < n; v++ {
			for depth := 0; depth <= 3; depth++ {
				flat := Truncated(g, v, depth)
				if !reflect.DeepEqual(flat.Ref(), RefTruncated(g, v, depth)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeReuse: Reset keeps capacity; rebuilding into a warm tree yields
// identical encodings regardless of what was built before.
func TestTreeReuse(t *testing.T) {
	g1 := graph.Petersen()
	g2 := graph.Path(3)
	want1 := Truncated(g1, 0, 3).Encode()
	want2 := Truncated(g2, 1, 2).Encode()
	var tr Tree
	var enc []byte
	for i := 0; i < 5; i++ {
		tr.Build(g1, 0, 3)
		enc = tr.AppendEncode(enc[:0])
		if !bytes.Equal(enc, want1) {
			t.Fatalf("iteration %d: warm rebuild differs", i)
		}
		tr.Build(g2, 1, 2)
		enc = tr.AppendEncode(enc[:0])
		if !bytes.Equal(enc, want2) {
			t.Fatalf("iteration %d: warm rebuild (small) differs", i)
		}
	}
}

// TestDecodeRejectsCorrupt: truncated and trailing inputs error out
// instead of panicking or silently succeeding.
func TestDecodeRejectsCorrupt(t *testing.T) {
	enc := Truncated(graph.Cycle(5), 0, 3).Encode()
	var back Tree
	for cut := 0; cut < len(enc); cut++ {
		if err := back.Decode(enc[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
	if err := back.Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
	if err := back.Decode(enc); err != nil {
		t.Fatalf("decode of intact encoding failed: %v", err)
	}
}

// TestRefinerReuse: a warm Refiner returns the same partition as a cold
// one across graphs of different shapes and sizes.
func TestRefinerReuse(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(12), graph.Path(5), graph.Star(6),
		graph.Petersen(), graph.TwoNode(), graph.Hypercube(3),
	}
	var r Refiner
	for round := 0; round < 3; round++ {
		for _, g := range graphs {
			got := r.Classes(g)
			want := Classes(g)
			if len(got) != len(want) {
				t.Fatalf("%s: length %d vs %d", g, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: warm refiner diverges at node %d", g, i)
				}
			}
		}
	}
}

// Truncated returns a fresh tree holding the view from v truncated to the
// given depth. Hot paths should keep a Tree and use Build instead.
func Truncated(g *graph.Graph, v, depth int) *Tree {
	t := &Tree{}
	t.Build(g, v, depth)
	return t
}

// Encode is the convenience form of AppendEncode for one-shot callers.
func (t *Tree) Encode() []byte { return t.AppendEncode(nil) }

// Equal reports whether two flat trees are structurally identical.
func Equal(a, b *Tree) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.Len() == 0 {
		return true
	}
	return equalAt(a, b, 0, 0)
}

func equalAt(a, b *Tree, ia, ib int32) bool {
	na, nb := &a.nodes[ia], &b.nodes[ib]
	if na.Deg != nb.Deg || na.EntryPort != nb.EntryPort {
		return false
	}
	if (na.Kids == NoKids) != (nb.Kids == NoKids) {
		return false
	}
	if na.Kids == NoKids {
		return true
	}
	for p := int32(0); p < na.Deg; p++ {
		ka, kb := a.kids[na.Kids+p], b.kids[nb.Kids+p]
		if (ka == Frontier) != (kb == Frontier) {
			return false
		}
		if ka != Frontier && !equalAt(a, b, ka, kb) {
			return false
		}
	}
	return true
}

// RefEncode renders the legacy canonical text encoding of a pointer tree:
// equal trees encode equally and different trees differ at some byte
// within both encodings' common prefix range. Format:
//
//	node := '(' deg ',' entry { kid } ')'
//
// with decimal numbers; a nil kid (truncation frontier) encodes as '*'.
func RefEncode(n *RefNode) []byte {
	var b strings.Builder
	var rec func(*RefNode)
	rec = func(nd *RefNode) {
		if nd == nil {
			b.WriteByte('*')
			return
		}
		fmt.Fprintf(&b, "(%d,%d", nd.Deg, nd.EntryPort)
		for _, k := range nd.Kids {
			rec(k)
		}
		b.WriteByte(')')
	}
	rec(n)
	return []byte(b.String())
}
