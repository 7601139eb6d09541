package graph

import "testing"

// The fuzz target guards the graph text parser against malformed input.
// Under plain `go test` only the seed corpus runs; `go test
// -fuzz=FuzzDecode` explores further.

func FuzzDecode(f *testing.F) {
	f.Add(Encode(TwoNode()))
	f.Add(Encode(Cycle(5)))
	f.Add(Encode(RandomConnected(7, 3, 1)))
	f.Add("2\n1/0\n0/0\n")
	f.Add("# name\n\n3\n1/0 2/0\n0/0\n0/1\n")
	f.Add("")
	f.Add("x\n")
	f.Add("2\n1/9\n0/0\n")
	f.Add("100000000\n")
	f.Fuzz(func(t *testing.T, s string) {
		g, err := Decode(s)
		if err != nil {
			return
		}
		// Anything accepted must be a valid graph and round-trip.
		if verr := g.Validate(); verr != nil {
			t.Fatalf("Decode accepted invalid graph: %v", verr)
		}
		again, err := Decode(Encode(g))
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if again.N() != g.N() || again.Edges() != g.Edges() {
			t.Fatal("round trip changed the graph")
		}
	})
}
