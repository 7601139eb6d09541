// Package obs is the repo's dependency-free observability layer: an
// atomic metrics registry with Prometheus text exposition, and a
// bounded trace timeline exporting Chrome trace-event JSON. sim, dist
// and rvd all publish into the process-wide Default() registry, which
// rvd serves at GET /metrics; dist and rvd additionally stamp
// per-shard lifecycle events into Timelines exported via
// `rvx -trace out.json` and GET /v1/sweeps/{id}/trace.
//
// # Metric naming scheme
//
// Families follow Prometheus conventions: <tier>_<noun>_<unit-or-total>
// with the tier prefix naming the publishing package — sim_*, dist_*,
// rvd_*. Monotonic counters end in _total; gauges are bare nouns
// (rvd_queue_depth, rvd_store_bytes); histograms carry their unit in
// the name (rvd_queue_wait_ns) and expose cumulative le buckets plus
// _sum/_count in that unit.
// Bounded label sets ride inline in the registered name
// (sim_wakeups_total{phase="viewWalk"}); the registry groups samples
// sharing a family under one HELP/TYPE pair. Label cardinality is
// bounded by construction — phases are a compile-time enum, conn labels
// are capped — because an unbounded label set would turn the registry
// into a leak.
//
// # Histogram buckets
//
// Every histogram uses fixed power-of-two buckets (ExpBuckets): an
// ascending start-doubling ladder plus the implicit +Inf bucket.
// Latency histograms start at 1µs (1000ns) and double for ~24 buckets
// (covering 1µs..8s); size histograms start at 64 bytes. Fixed integer
// bounds keep Observe allocation-free: a bounded scan over at most
// ~24 bounds, then three atomic adds (bucket, sum, count).
//
// # Zero-overhead contract
//
// Instrumentation MUST NOT touch the engine hot path. The contract,
// enforced by sim's zero-alloc tests and BenchmarkInstrumentedShard:
//
//   - Counter.Add/Inc, Gauge.Add/Set and Histogram.Observe are
//     lock-free atomic operations with zero allocation. Registration
//     (which locks and allocates) happens once at package init or
//     setup time, never per run and never per wakeup.
//   - sim publishes per-run TOTALS: the engine accumulates into its
//     existing non-atomic runStats during a run and flushes them as a
//     handful of atomic adds when the run ends. The per-wakeup path is
//     untouched — BenchmarkInstrumentedShard stays 0 allocs/op, and
//     TestInstrumentedShardAllocs fails if it does not.
//   - dist and rvd instrument their coordination paths (dispatch,
//     frame handling, store I/O), which are microseconds per event
//     against milliseconds of work; Timeline.Add takes a mutex but only
//     on those paths, never inside the engine.
//
// # Timelines
//
// A Timeline is a ring of span ("X") and instant ("i") events on
// integer tracks (shard index, conn id), stamped on the monotonic clock
// relative to the timeline's epoch. The ring is bounded and grows on
// demand up to its capacity: it allocates nothing until its first
// event, then doubles from 16 events, so a timeline that records a few
// events holds only those. When the ring is full the oldest events are
// overwritten and counted as dropped — recording never blocks and never
// grows past the capacity. WriteChromeTrace renders a
// snapshot as the Chrome trace-event JSON format
// ({"traceEvents": [{"name", "ph", "ts", "dur", "pid", "tid", ...}]},
// microsecond timestamps), loadable directly in Perfetto or
// chrome://tracing. See dist's doc.go for the shard span lifecycle.
package obs
