package dist_test

// Dispatch-overhead benchmarks: what the protocol itself costs, measured
// with near-trivial simulator cases so the codec, framing and
// coordinator machinery dominate. BenchmarkDistDispatch is the number
// benchdiff gates across PRs — a regression here is pure dispatcher
// overhead, invisible to the engine benchmarks.

import (
	"testing"

	"repro/dist"
	"repro/graph"
)

// benchPlan builds 4 shards x 8 trivial two-agent cases: sit vs
// moveevery at fixed starts with a tiny budget and a small delay grid,
// so each shard is a couple of scheduler interactions total and the
// measured time is dispatch, not simulation.
func benchPlan() *dist.Planner {
	p := &dist.Planner{}
	for s := 0; s < 4; s++ {
		g := graph.Cycle(4 + s)
		for c := 0; c < 8; c++ {
			p.Add(s, g, dist.CaseDesc{
				Kind:  dist.KindTwoAgent,
				ProgA: dist.ProgDesc{Name: "moveevery"},
				ProgB: dist.ProgDesc{Name: "sit"},
				U:     0, V: 2,
				Delay:  uint64(c % 2),
				Budget: 64,
			})
		}
	}
	return p
}

// BenchmarkDistDispatch measures one whole dispatched sweep — 4 shards,
// 32 cases — through in-process protocol workers: descriptor encode,
// framing, worker decode, execution on a warm pooled session, result
// encode, coordinator decode, view-signature verification, and
// position-stable aggregation.
func BenchmarkDistDispatch(b *testing.B) {
	p := benchPlan()
	be := dist.NewInProcess(2)
	defer be.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(be); err != nil {
			b.Fatal(err)
		}
	}
	total := float64(p.Len()) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "cases/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/case")
}

// BenchmarkShardCodec isolates the wire codec: encode + decode of a
// representative shard descriptor, no execution.
func BenchmarkShardCodec(b *testing.B) {
	sh := benchPlan().Shards()[0]
	enc := sh.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dec dist.ShardDesc
		if err := dec.Decode(enc); err != nil {
			b.Fatal(err)
		}
		enc = dec.AppendEncode(enc[:0])
	}
}
