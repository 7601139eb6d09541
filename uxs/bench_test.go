package uxs

import (
	"fmt"
	"testing"

	"repro/graph"
)

func BenchmarkGenerate(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Generate(n)
			}
		})
	}
}

func BenchmarkCovers(b *testing.B) {
	cases := []*graph.Graph{
		graph.Cycle(16),
		graph.OrientedTorus(4, 4),
		graph.SymmetricTree(graph.FullShape(2, 2)),
	}
	for _, g := range cases {
		b.Run(g.String(), func(b *testing.B) {
			s := Generate(g.N())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !Covers(g, s) {
					b.Fatal("coverage failed")
				}
			}
		})
	}
}
