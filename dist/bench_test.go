package dist_test

// Dispatch-overhead benchmarks: what the protocol itself costs, measured
// with near-trivial simulator cases so the codec, framing and
// coordinator machinery dominate. BenchmarkDistDispatch is the number
// benchdiff gates across PRs — a regression here is pure dispatcher
// overhead, invisible to the engine benchmarks.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

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

// latencyLane is one direction of a simulated high-RTT link: writes
// return immediately and the bytes surface at the far end one latency
// later (a pump goroutine holds them in flight). Latency, not occupancy
// — concurrent frames overlap in flight, the way real network latency
// behaves and unlike a transport that sleeps inside Write.
type latencyLane struct {
	d  time.Duration
	pr *io.PipeReader
	pw *io.PipeWriter

	mu     sync.Mutex
	closed bool
	ch     chan latencyMsg
}

type latencyMsg struct {
	due time.Time
	buf []byte
}

func newLatencyLane(d time.Duration) *latencyLane {
	pr, pw := io.Pipe()
	l := &latencyLane{d: d, pr: pr, pw: pw, ch: make(chan latencyMsg, 1024)}
	go func() {
		for m := range l.ch {
			time.Sleep(time.Until(m.due))
			// A closed receiver just drains the lane dry.
			_, _ = l.pw.Write(m.buf)
		}
		l.pw.Close()
	}()
	return l
}

func (l *latencyLane) send(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, io.ErrClosedPipe
	}
	l.ch <- latencyMsg{due: time.Now().Add(l.d), buf: append([]byte(nil), p...)}
	return len(p), nil
}

func (l *latencyLane) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	l.mu.Unlock()
	l.pr.Close()
}

type latencyEnd struct{ in, out *latencyLane }

func (e *latencyEnd) Read(p []byte) (int, error)  { return e.in.pr.Read(p) }
func (e *latencyEnd) Write(p []byte) (int, error) { return e.out.send(p) }
func (e *latencyEnd) Close() error                { e.in.close(); e.out.close(); return nil }

// latencyPipe returns the two endpoints of a bidirectional link with the
// given one-way frame latency.
func latencyPipe(d time.Duration) (coord, worker io.ReadWriteCloser) {
	ab, ba := newLatencyLane(d), newLatencyLane(d)
	return &latencyEnd{in: ba, out: ab}, &latencyEnd{in: ab, out: ba}
}

// BenchmarkDistPipelined pins the pipelined-dispatch win: the same sweep
// through one worker behind a 500µs-one-way link, with the dispatch
// window clamped to 1 (v1's request/response shape) versus 4 (the v2
// default). At depth 1 every shard pays the full round trip; at depth 4
// the next shards are already on the worker when one finishes, so the
// per-case overhead must drop by roughly the link latency.
func BenchmarkDistPipelined(b *testing.B) {
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			const oneWay = 500 * time.Microsecond
			coordEnd, workerEnd := latencyPipe(oneWay)
			go func() {
				_ = dist.Serve(workerEnd, workerEnd)
				workerEnd.Close()
			}()
			p := benchPlan()
			be := dist.NewFromStreams([]io.ReadWriteCloser{coordEnd}, dist.WithTuning(dist.Tuning{
				MaxWindow:    depth,
				BaseDeadline: 30 * time.Second,
			}))
			defer be.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(be); err != nil {
					b.Fatal(err)
				}
			}
			total := float64(p.Len()) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/case")
		})
	}
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
