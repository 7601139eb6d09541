package graph

import (
	"strconv"
	"testing"
)

func BenchmarkRandomConnected(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomConnected(64, 32, uint64(i))
	}
}

func BenchmarkBFS(b *testing.B) {
	g, _ := Qhat(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}

func BenchmarkValidate(b *testing.B) {
	g := OrientedTorus(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQhat(b *testing.B) {
	for _, h := range []int{4, 6, 8} {
		b.Run(strconv.Itoa(h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, _ := Qhat(h)
				if g.N() != QhSize(h) {
					b.Fatal("size mismatch")
				}
			}
		})
	}
}
