package dist_test

// Pins for the deprecated Batch byte while it stays in the encoding: it
// survives the codec, batch-flagged shards through a backend aggregate
// exactly like the raw sweep (workers ignore the byte), and the
// planner's SetBatch stamps the right shard.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/dist"
	"repro/graph"
	"repro/internal/simtest"
)

func TestShardBatchFlagRoundTrip(t *testing.T) {
	for _, batch := range []bool{false, true} {
		sh := &dist.ShardDesc{
			GraphText: graph.Encode(graph.Cycle(4)),
			Batch:     batch,
			Cases: []dist.CaseDesc{{
				Kind:  dist.KindTwoAgent,
				ProgA: dist.ProgDesc{Name: "sit"},
				ProgB: dist.ProgDesc{Name: "moveevery"},
				U:     0, V: 2, Budget: 50,
			}},
		}
		var got dist.ShardDesc
		if err := got.Decode(sh.Encode()); err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		if !reflect.DeepEqual(&got, sh) {
			t.Fatalf("batch=%v: round trip drifted\n  in:  %+v\n  out: %+v", batch, sh, &got)
		}
	}
}

// TestDifferentialBatchBackend re-runs the backend differential with
// every shard batch-flagged: the dispatched results must still equal the
// raw in-process sim.Sweep on full result equality.
func TestDifferentialBatchBackend(t *testing.T) {
	be := dist.NewInProcess(2)
	defer be.Close()
	r := rand.New(rand.NewSource(0xD15C))
	for round := 0; round < 6; round++ {
		p, cases := buildPlan(r)
		for _, sh := range p.Shards() {
			sh.Batch = true
		}
		want := rawSweep(t, cases)
		got, err := p.Run(be)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		simtest.RequireEqualResults(t, fmt.Sprintf("batch round %d", round), want, got)
	}
}

func TestPlannerSetBatch(t *testing.T) {
	p := &dist.Planner{}
	g := graph.Cycle(4)
	p.Add("a", g, dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: dist.ProgDesc{Name: "sit"}, ProgB: dist.ProgDesc{Name: "sit"}, Budget: 10})
	p.Add("b", g, dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: dist.ProgDesc{Name: "sit"}, ProgB: dist.ProgDesc{Name: "sit"}, Budget: 10})
	p.SetBatch("b")
	shards := p.Shards()
	if shards[0].Batch || !shards[1].Batch {
		t.Fatalf("SetBatch stamped the wrong shard: %v %v", shards[0].Batch, shards[1].Batch)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBatch on an unknown key must panic")
		}
	}()
	p.SetBatch("no-such-key")
}
