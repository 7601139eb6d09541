package rendezvous

import (
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/sim"
)

func TestUnpaddedSymmRVStillMeetsSymmetricPairs(t *testing.T) {
	// Lemma 3.2 survives without padding when the pair is symmetric: the
	// agents see identical degree sequences, so their schedules align.
	g := graph.Cycle(5)
	prog, err := NewUnpaddedSymmRV(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(g, prog, 0, 2, 2, sim.Config{Budget: 2 + 2*SymmRVTime(5, 2, 2)})
	if res.Outcome != sim.Met {
		t.Fatalf("unpadded SymmRV failed on symmetric pair: %v", res.Outcome)
	}
}

func TestUnpaddedSymmRVDesyncOnNonsymmetricStarts(t *testing.T) {
	// The ablation's failure mode: from NONsymmetric starts the two
	// agents' unpadded durations differ (different degree sequences mean
	// different path counts), so a universal algorithm built on the
	// unpadded procedure would leave the agents desynchronized for all
	// later phases. The padded implementation takes identical time from
	// every start.
	g := graph.Path(4) // endpoint vs interior starts see different degrees
	unpadded := func(w agent.World) { unpaddedSymmRV(w, 4, 1, 1) }
	durEnd, _, _ := sim.Solo(g, unpadded, 0, 0, nil)
	durMid, _, _ := sim.Solo(g, unpadded, 1, 0, nil)
	if durEnd == durMid {
		t.Fatalf("expected desync, both took %d rounds", durEnd)
	}

	want := SymmRVTime(4, 1, 1)
	for start := 0; start < 4; start++ {
		if got, _, _ := sim.Solo(g, func(w agent.World) { symmRV(w, 4, 1, 1) }, start, 0, nil); got != want {
			t.Fatalf("padded duration from %d is %d, want exactly %d", start, got, want)
		}
	}
}

func TestUnpaddedSymmRVDurationAtMostPadded(t *testing.T) {
	// Padding only ever adds waiting: the unpadded run can't be longer.
	g := graph.Cycle(6)
	padded := SymmRVTime(6, 1, 2)
	for _, start := range []int{0, 3} {
		d, _, _ := sim.Solo(g, func(w agent.World) { unpaddedSymmRV(w, 6, 1, 2) }, start, 0, nil)
		if d > padded {
			t.Fatalf("unpadded duration %d from %d exceeds padded %d", d, start, padded)
		}
	}
}

func TestUnpaddedSymmRVValidation(t *testing.T) {
	if _, err := NewUnpaddedSymmRV(1, 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewUnpaddedSymmRV(5, 3, 1); err == nil {
		t.Fatal("δ<d accepted")
	}
}
