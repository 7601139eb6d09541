package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/dist"
	"repro/internal/obs"
	"repro/sim"
)

// The traced run measures each layer from outside: spans around the
// benchmark's own calls into each layer's public functions, a timing
// wrapper around the fleet backend, replays of every captured shard on
// a warm engine session and through the codec, and deltas of the obs
// registry's counters. Spans stay in memory and are written once, at
// exit, as Chrome trace JSON.

// Chrome trace tracks (tids).
const (
	trackClient = 1 // the closed-loop client: ops and the layer calls they make
	trackFleet  = 2 // the daemon's scheduler goroutine calling the fleet
)

// closureTolerance is how far below its op a layer sum may fall: the op's
// time outside every layer span (table rendering, JSON framing, loop
// bookkeeping) must stay under 5% of the op.
const closureTolerance = 0.05

// layerMetric is one per-layer metric: its unit and, written down before
// any measurement, the end-to-end metric and workload a change in it
// should move. The traced run prints it next to the value.
type layerMetric struct{ name, unit, moves string }

// layerMetrics lists every per-layer metric the traced run reports, in
// report order. A workload that never enters a layer reports 0 for it.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	var l []layerMetric
	for i := 1; i <= 19; i++ {
		moves := "tables: op_ms_p50, ops_per_s"
		if i == 7 || i == 12 || i == 17 {
			moves += "; sweeps: op_ms_p50"
		}
		l = append(l, layerMetric{fmt.Sprintf("experiments.E%d_ms", i), "ms", moves})
	}
	const engine = "sweeps: op_ms_p50, cpu_ms_per_op; daemon: op_ms_p90 (cold jobs)"
	const counts = "nothing: a count repeats exactly unless the code changes"
	const warm = "daemon: op_ms_p50 (warm jobs)"
	l = append(l,
		layerMetric{"dist.plan_ms", "ms", "sweeps: op_ms_p50"},
		layerMetric{"dist.run_ms", "ms", "sweeps: op_ms_p50; tables at ~20% weight"},
		layerMetric{"dist.run_cpu_ms", "ms", "sweeps: cpu_ms_per_op; tables at ~20% weight"},
		layerMetric{"sim.exec_ms", "ms", engine},
		layerMetric{"sim.exec_cpu_ms", "ms", engine},
		layerMetric{"sim.exec_ms.E7", "ms", "sweeps: op_ms_p50"},
		layerMetric{"sim.exec_ms.E12", "ms", "sweeps: op_ms_p50"},
		layerMetric{"sim.exec_ms.E17", "ms", "sweeps: op_ms_p50"},
		layerMetric{"codec.shard_enc_us", "us", "sweeps: cpu_ms_per_op"},
		layerMetric{"codec.shard_dec_us", "us", "sweeps: cpu_ms_per_op"},
		layerMetric{"codec.result_enc_us", "us", "sweeps: cpu_ms_per_op"},
		layerMetric{"codec.result_dec_us", "us", "sweeps: cpu_ms_per_op"},
		layerMetric{"dist.transport_cpu_ms", "ms", "sweeps: cpu_ms_per_op"},
		layerMetric{"dist.encoded_bytes_per_op", "bytes", counts},
		layerMetric{"dist.shards_per_op", "count", counts},
		layerMetric{"dist.cases_per_op", "count", counts},
		layerMetric{"dist.chunks_per_op", "count", counts},
		layerMetric{"dist.requeues_per_op", "count", counts + "; stays 0"},
		layerMetric{"sim.rounds_per_op", "count", counts},
		layerMetric{"sim.wakeups_per_op", "count", counts},
		layerMetric{"sim.runs_pair_per_op", "count", "shows which engine served tables and sweeps"},
		layerMetric{"sim.runs_multi_per_op", "count", "shows which engine served tables and sweeps"},
		layerMetric{"sim.runs_batch_per_op", "count", "shows which engine served tables and sweeps"},
		layerMetric{"sim.wakeups_total_per_op", "count", "shows which engine served tables and sweeps"},
	)
	for _, kind := range []string{"cold", "warm"} {
		moves := warm
		if kind == "cold" {
			moves = "daemon: op_ms_p90 (cold jobs)"
		}
		for _, phase := range []string{"submit", "complete", "fetch"} {
			l = append(l, layerMetric{"rvd." + kind + "." + phase + "_ms", "ms", moves})
		}
		l = append(l,
			layerMetric{"rvd." + kind + "_ms_p50", "ms", moves},
			layerMetric{"rvd." + kind + "_ms_p90", "ms", moves})
	}
	return append(l,
		layerMetric{"rvd.journal_fsync_us_p50", "us", warm},
		layerMetric{"rvd.queue_wait_us_p50", "us", warm},
		layerMetric{"rvd.journal_appends_per_job", "count", warm},
		layerMetric{"rvd.store_written_kb_per_cold_job", "KiB", "daemon: op_ms_p90 (cold jobs)"},
		layerMetric{"rvd.store_read_kb_per_warm_job", "KiB", warm},
		layerMetric{"rvd.hit_ratio", "ratio", counts},
		layerMetric{"rvd.store_entries_end", "count", "daemon: peak_rss_mb"},
		layerMetric{"rvd.heap_mb_end", "MiB", "daemon: peak_rss_mb"},
		layerMetric{"gc.alloc_mb_per_op", "MiB", "every workload: cpu_ms_per_op, peak_rss_mb"},
		layerMetric{"gc.cycles_per_op", "count", "every workload: cpu_ms_per_op"},
		layerMetric{"gc.cpu_fraction", "ratio", "every workload: cpu_ms_per_op"},
		layerMetric{"gc.heap_live_mb_end", "MiB", "every workload: peak_rss_mb"},
		layerMetric{"trace.overhead_pct", "%", "nothing: the traced run's own cost"},
		layerMetric{"trace.closure_ratio", "ratio", "nothing: how fully the layer spans cover the op"},
	)
}

// tracer holds a traced run's spans and per-layer accumulators.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex // the daemon's scheduler records dist.run spans concurrently
	events  []obs.Event
	sums    map[string]float64
	samples map[string][]float64

	ops, traced int            // ops seen, ops traced (every other op or block)
	kindOps     map[string]int // ops seen, by kind
	tracedLat   []float64      // latency of each traced op, ms
	expo0       string         // registry exposition before the first op

	sess  *sim.Session // warm engine session for the replays
	batch *sim.Batch   // pooled batch arena for batch-flagged shards

	// Set at run end: live heap after runtime.GC() with the system up,
	// and (daemon) what the daemon held: live heap with it up minus with
	// it closed; store entries of the last daemon lifetime.
	heapLiveMB, daemonHeapMB, storeEntries float64
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		sums:    map[string]float64{},
		samples: map[string][]float64{},
		kindOps: map[string]int{},
		sess:    sim.NewSession(),
		batch:   sim.NewBatch(),
	}
}

func (t *tracer) close() { t.sess.Close() }

// now is the span clock: ns since the tracer's epoch (0 on a nil tracer,
// so untraced ops pass nil and skip every span).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// span records a span from start to now and returns its duration in ns.
func (t *tracer) span(track int64, name, cat string, start int64, arg string) int64 {
	if t == nil {
		return 0
	}
	d := t.now() - start
	t.mu.Lock()
	t.events = append(t.events, obs.Event{Name: name, Cat: cat, Track: track, Start: start, Dur: d, Arg: arg})
	t.mu.Unlock()
	return d
}

// layer records a client-side span named after a layer metric and adds
// its duration to name_ms.
func (t *tracer) layer(name string, start int64) {
	if t == nil {
		return
	}
	d := t.span(trackClient, name, strings.SplitN(name, ".", 2)[0], start, "")
	t.add(name+"_ms", float64(d)/1e6)
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// snapshot is the registry and runtime state around one op.
type snapshot struct {
	vals map[string]uint64
	rt   [len(rtMetrics)]float64
}

var rtMetrics = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func takeSnapshot() snapshot {
	s := snapshot{vals: obs.Default().Values()}
	var ms [len(rtMetrics)]metrics.Sample
	for i := range ms {
		ms[i].Name = rtMetrics[i]
	}
	metrics.Read(ms[:])
	for i := range ms {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			s.rt[i] = float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			s.rt[i] = ms[i].Value.Float64()
		}
	}
	return s
}

func exposition() string {
	var b strings.Builder
	_ = obs.Default().Expose(&b)
	return b.String()
}

// afterOp folds one finished op into the accumulators: registry and
// runtime deltas and shard counts for every op; for a traced op also the
// engine and codec replays of its shards and its op span, which covers
// the replays (they are its children) but whose latency does not.
func (t *tracer) afterOp(tb *timedBackend, kind string, traced bool, start int64, ms float64, before snapshot) error {
	after := takeSnapshot()
	t.ops++
	t.kindOps[kind]++
	delta := func(key string) float64 { return float64(after.vals[key] - before.vals[key]) }
	for _, c := range [][2]string{
		{"sim.runs_pair", `sim_runs_total{engine="pair"}`},
		{"sim.runs_multi", `sim_runs_total{engine="multi"}`},
		{"sim.runs_batch", `sim_runs_total{engine="batch"}`},
		{"sim.wakeups_total", "sim_wakeups_total"},
		{"rvd.journal_appends", "rvd_journal_appends_total"},
		{"rvd.shard_hits", "rvd_shards_cache_hits_total"},
		{"rvd.shard_exec", "rvd_shards_executed_total"},
		{"rvd.store_written_b." + kind, "rvd_store_written_bytes_total"},
		{"rvd.store_read_b." + kind, "rvd_store_read_bytes_total"},
	} {
		t.add(c[0], delta(c[1]))
	}
	for i, name := range []string{"gc.alloc_b", "gc.cycles", "gc.cpu_s", "gc.user_cpu_s"} {
		t.add(name, after.rt[i]-before.rt[i])
	}
	err := t.replay(tb.drain(), traced)
	if traced {
		t.traced++
		t.tracedLat = append(t.tracedLat, ms)
		t.span(trackClient, "op", kind, start, fmt.Sprintf("%s op, latency %.3f ms", kind, ms))
	}
	return err
}

// replay counts the shards an op sent through the fleet and, for a traced
// op, re-executes each one on the warm session (batch-flagged shards
// through the pooled batch arena, as workers do) and through the codec.
// A replay whose result bytes differ from the backend's fails the op.
func (t *tracer) replay(calls []runCall, traced bool) error {
	for _, c := range calls {
		t.add("dist.chunks", float64(c.stats.Chunks))
		t.add("dist.requeues", float64(c.stats.Requeues))
		for i, sh := range c.shards {
			res := c.results[i]
			want := res.AppendEncode(nil)
			t.add("dist.encoded_bytes", float64(len(sh.Encode())+len(want)))
			t.add("dist.shards", 1)
			t.add("dist.cases", float64(len(sh.Cases)))
			for _, cr := range res.Cases {
				rounds := cr.Two.Rounds
				if cr.Kind == dist.KindMulti {
					rounds = cr.Multi.Rounds
				}
				t.add("sim.rounds", float64(rounds))
				t.add("sim.wakeups", float64(cr.Wakeups))
			}
			if !traced {
				continue
			}
			start, c0 := t.now(), cpuTime()
			var got *dist.ShardResult
			var err error
			if sh.Batch {
				got, err = dist.ExecShardBatch(t.sess, t.batch, sh)
			} else {
				got, err = dist.ExecShard(t.sess, sh)
			}
			cpu := cpuTime() - c0
			d := t.span(trackClient, "sim.exec", "sim", start, c.label)
			if err != nil {
				return fmt.Errorf("engine replay: %w", err)
			}
			if !bytes.Equal(got.AppendEncode(nil), want) {
				return errors.New("engine replay result differs from the backend's")
			}
			t.add("sim.exec_ms", float64(d)/1e6)
			t.add("sim.exec_cpu_ms", float64(cpu)/1e6)
			if c.label != "" {
				t.add("sim.exec_ms."+c.label, float64(d)/1e6)
			}
			if err := t.replayCodec(sh, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayCodec times the descriptor and result codecs on one shard.
func (t *tracer) replayCodec(sh *dist.ShardDesc, res *dist.ShardResult) error {
	start := t.now()
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		t.add(name, float64(time.Since(t0))/1e3)
	}
	var enc, renc []byte
	var derr, rerr error
	timed("codec.shard_enc_us", func() { enc = sh.Encode() })
	timed("codec.shard_dec_us", func() { derr = new(dist.ShardDesc).Decode(enc) })
	timed("codec.result_enc_us", func() { renc = res.AppendEncode(nil) })
	timed("codec.result_dec_us", func() { rerr = new(dist.ShardResult).Decode(renc) })
	t.span(trackClient, "codec", "codec", start, "")
	return errors.Join(derr, rerr)
}

// runCall is one fleet Run an op made.
type runCall struct {
	label   string // the experiment whose sweep it was ("" for rvd jobs)
	shards  []*dist.ShardDesc
	results []*dist.ShardResult
	stats   dist.RunStats
}

// timedBackend wraps a workload's fleet in traced runs. Every Run passes
// to the inner backend unchanged; during an op the wrapper keeps the
// call's shards, results and dist.RunStats for the replays, and during a
// traced op it also records the call as a dist.run span with its wall
// time and process CPU.
type timedBackend struct {
	inner dist.Backend
	tr    *tracer
	track int64

	mu      sync.Mutex
	capture bool // an op is running
	traced  bool // the running op is traced
	label   string
	calls   []runCall
}

func newTimedBackend(inner dist.Backend, tr *tracer, track int64) *timedBackend {
	return &timedBackend{inner: inner, tr: tr, track: track}
}

func (b *timedBackend) begin(traced bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.capture, b.traced, b.calls = true, traced, nil
	b.mu.Unlock()
}

func (b *timedBackend) drain() []runCall {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	calls := b.calls
	b.capture, b.traced, b.calls = false, false, nil
	return calls
}

// setLabel names the experiment whose sweep the next Runs belong to.
func (b *timedBackend) setLabel(label string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.label = label
	b.mu.Unlock()
}

func (b *timedBackend) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	b.mu.Lock()
	capture, traced, label := b.capture, b.traced, b.label
	b.mu.Unlock()
	var start int64
	var c0 time.Duration
	if traced {
		start, c0 = b.tr.now(), cpuTime()
	}
	res, err := b.inner.Run(shards)
	if traced {
		cpu := cpuTime() - c0
		d := b.tr.span(b.track, "dist.run", "dist", start, label)
		b.tr.add("dist.run_ms", float64(d)/1e6)
		b.tr.add("dist.run_cpu_ms", float64(cpu)/1e6)
	}
	if err == nil && capture {
		st, _ := dist.LastRunStats(b.inner)
		b.mu.Lock()
		b.calls = append(b.calls, runCall{label: label, shards: shards, results: res, stats: st})
		b.mu.Unlock()
	}
	return res, err
}

func (b *timedBackend) Close() error { return b.inner.Close() }

// liveHeapMiB is the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// closureRatio is the traced ops' layer sum over their op time: the sum
// of the spans that partition each op, by workload.
func (r *runner) closureRatio() (ratio float64, what string) {
	t := r.tr
	var layers float64
	switch r.cfg.workload {
	case "tables", "sweeps":
		// On sweeps the experiments are E7, E12 and E17, whose spans are
		// dist.plan_ms + dist.run_ms.
		for name, ms := range t.sums {
			if strings.HasPrefix(name, "experiments.") {
				layers += ms
			}
		}
		what = "Σ experiments.* ÷ tables op"
		if r.cfg.workload == "sweeps" {
			what = "(dist.plan_ms + dist.run_ms) ÷ sweeps op"
		}
	case "daemon":
		layers = t.sums["rvd.submit_ms"] + t.sums["rvd.complete_ms"] + t.sums["rvd.fetch_ms"]
		what = "(submit + complete + fetch) ÷ daemon job"
	}
	return layers / sum(t.tracedLat), what
}

// closure writes the closure report and fails when a layer sum misses
// its op by more than closureTolerance.
func (r *runner) closure(b *strings.Builder) error {
	ratio, what := r.closureRatio()
	fmt.Fprintf(b, "closure: %s = %.4f over %d traced ops (tolerance: %.0f%% below 1)\n",
		what, ratio, r.tr.traced, closureTolerance*100)
	fmt.Fprintf(b, "closure: trace.overhead_pct = %.2f (traced op p50 %.4f ms over untraced p50 %.4f ms)\n",
		r.overheadPct(), percentile(r.tr.tracedLat, 0.5), percentile(r.lat, 0.5))
	if ratio < 1-closureTolerance || ratio > 1+1e-9 {
		return fmt.Errorf("layer sum is %.4f of the op", ratio)
	}
	return nil
}

func (r *runner) overheadPct() float64 {
	return (percentile(r.tr.tracedLat, 0.5)/percentile(r.lat, 0.5) - 1) * 100
}

// perLayer computes the traced run's per-layer metrics. Times are means
// per traced op; counts are per op over every op of the run.
func (r *runner) perLayer(b *strings.Builder) map[string]metric {
	t := r.tr
	perTraced := func(name string) float64 { return t.sums[name] / float64(max(t.traced, 1)) }
	perOp := func(name string) float64 { return t.sums[name] / float64(max(t.ops, 1)) }
	perKind := func(name, kind string) float64 { return t.sums[name] / float64(max(t.kindOps[kind], 1)) }
	v := map[string]float64{}
	for _, lm := range layerMetrics {
		// Span and replay times accumulate under their metric's name.
		v[lm.name] = perTraced(lm.name)
	}
	if sweeps := v["experiments.E7_ms"] + v["experiments.E12_ms"] + v["experiments.E17_ms"]; sweeps > 0 {
		v["dist.plan_ms"] = sweeps - v["dist.run_ms"]
	}
	codecMs := (v["codec.shard_enc_us"] + v["codec.shard_dec_us"] + v["codec.result_enc_us"] + v["codec.result_dec_us"]) / 1e3
	if v["dist.run_cpu_ms"] > 0 {
		v["dist.transport_cpu_ms"] = v["dist.run_cpu_ms"] - v["sim.exec_cpu_ms"] - codecMs
	}
	for _, n := range []string{"dist.shards", "dist.cases", "dist.chunks", "dist.requeues", "sim.rounds",
		"sim.wakeups", "sim.runs_pair", "sim.runs_multi", "sim.runs_batch", "sim.wakeups_total"} {
		v[n+"_per_op"] = perOp(n)
	}
	v["dist.encoded_bytes_per_op"] = perOp("dist.encoded_bytes")

	for _, kind := range []string{"cold", "warm"} {
		for _, phase := range []string{"submit", "complete", "fetch"} {
			n := "rvd." + kind + "." + phase + "_ms"
			v[n] = percentile(t.samples[n], 0.5)
		}
		xs := r.latOf(kind)
		v["rvd."+kind+"_ms_p50"] = percentile(xs, 0.5)
		v["rvd."+kind+"_ms_p90"] = percentile(xs, 0.9)
	}
	expo1 := exposition()
	v["rvd.journal_fsync_us_p50"] = histQuantile(t.expo0, expo1, "rvd_journal_fsync_ns", 0.5) / 1e3
	v["rvd.queue_wait_us_p50"] = histQuantile(t.expo0, expo1, "rvd_queue_wait_ns", 0.5) / 1e3
	v["rvd.journal_appends_per_job"] = perOp("rvd.journal_appends")
	v["rvd.store_written_kb_per_cold_job"] = perKind("rvd.store_written_b.cold", "cold") / 1024
	v["rvd.store_read_kb_per_warm_job"] = perKind("rvd.store_read_b.warm", "warm") / 1024
	if served := t.sums["rvd.shard_hits"] + t.sums["rvd.shard_exec"]; served > 0 {
		v["rvd.hit_ratio"] = t.sums["rvd.shard_hits"] / served
	}
	v["rvd.store_entries_end"] = t.storeEntries
	v["rvd.heap_mb_end"] = t.daemonHeapMB

	v["gc.alloc_mb_per_op"] = perOp("gc.alloc_b") / (1 << 20)
	v["gc.cycles_per_op"] = perOp("gc.cycles")
	if cpu := t.sums["gc.cpu_s"] + t.sums["gc.user_cpu_s"]; cpu > 0 {
		v["gc.cpu_fraction"] = t.sums["gc.cpu_s"] / cpu
	}
	v["gc.heap_live_mb_end"] = t.heapLiveMB
	v["trace.overhead_pct"] = r.overheadPct()
	v["trace.closure_ratio"], _ = r.closureRatio()

	fmt.Fprintf(b, "per-layer: %d traced of %d ops; times are means per traced op, counts are per op\n", t.traced, t.ops)
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{v[lm.name], lm.unit}
		fmt.Fprintf(b, "  %-34s %16.4f %-5s  should move: %s\n", lm.name, v[lm.name], lm.unit, lm.moves)
	}
	return m
}

// write saves the spans as Chrome trace JSON (loadable in Perfetto).
func (t *tracer) write(path string) error {
	return writeFile(path, func(w io.Writer) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		return obs.WriteChromeTrace(w, t.events)
	})
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
