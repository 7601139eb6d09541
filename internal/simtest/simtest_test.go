package simtest

import (
	"testing"

	"repro/graph"
)

func TestApply(t *testing.T) {
	g := graph.Cycle(5)
	end, err := Apply(g, 0, []int{0, 0, 0})
	if err != nil || end != 3 {
		t.Fatalf("Apply walk = %d, %v", end, err)
	}
	if _, err := Apply(g, 0, []int{7}); err == nil {
		t.Fatal("Apply accepted out-of-range port")
	}
}
