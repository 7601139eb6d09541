package view

import (
	"fmt"
	"testing"

	"repro/graph"
)

func BenchmarkClasses(b *testing.B) {
	bench := func(b *testing.B, g *graph.Graph) {
		var r Refiner
		r.Classes(g) // warm the arenas: steady state is 0 allocs/op
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Classes(g)
		}
	}
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			bench(b, graph.Cycle(n))
		})
	}
	b.Run("qhat-4", func(b *testing.B) {
		g, _ := graph.Qhat(4)
		bench(b, g)
	})
}

func BenchmarkTruncated(b *testing.B) {
	g := graph.OrientedTorus(4, 4)
	var t Tree
	t.Build(g, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Build(g, i%g.N(), 4)
	}
}

func BenchmarkEncode(b *testing.B) {
	g := graph.OrientedTorus(4, 4)
	v := Truncated(g, 0, 4)
	buf := v.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = v.AppendEncode(buf[:0])
	}
	_ = buf
}
