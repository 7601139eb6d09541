package dist

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// Coordinator-side metrics, published into obs.Default(). These sit on
// the coordination path (dispatch, frame handling) — microseconds of
// bookkeeping per multi-millisecond shard — never inside the engine.
var (
	obsDispatched = obs.Default().Counter("dist_shards_dispatched_total",
		"shard dispatches to worker connections (requeues redispatch)")
	obsCompleted = obs.Default().Counter("dist_shards_completed_total",
		"shards retired with a terminal result or error")
	obsRequeued = obs.Default().Counter("dist_shards_requeued_total",
		"shards re-dealt from zero after their connection died")
	obsDeadConns = obs.Default().Counter("dist_conns_dead_total",
		"worker connections lost (transport error, checksum failure, watchdog)")
	obsJoinedConns = obs.Default().Counter("dist_conns_joined_total",
		"worker connections joined mid-sweep")
	obsChunks = obs.Default().Counter("dist_chunks_total",
		"result frames aggregated")
)

// Per-conn inflight gauges, one labeled sample per connection index up
// to a cardinality cap (indexes beyond it share an overflow sample so a
// huge elastic fleet cannot grow the registry without bound).
const maxConnGaugeLabels = 32

var (
	connGaugeMu  sync.Mutex
	connGauges   []*obs.Gauge
	connOverflow *obs.Gauge
)

func connInflightGauge(idx int) *obs.Gauge {
	connGaugeMu.Lock()
	defer connGaugeMu.Unlock()
	if idx >= maxConnGaugeLabels {
		if connOverflow == nil {
			connOverflow = obs.Default().Gauge(`dist_conn_inflight{conn="overflow"}`,
				"shards in flight per worker connection")
		}
		return connOverflow
	}
	for len(connGauges) <= idx {
		connGauges = append(connGauges, obs.Default().Gauge(
			fmt.Sprintf(`dist_conn_inflight{conn="%d"}`, len(connGauges)),
			"shards in flight per worker connection"))
	}
	return connGauges[idx]
}

// traceCap bounds each backend's trace ring: with ~4 events per shard
// plus conn/run markers, 16384 events cover sweeps of a few thousand
// shards before the oldest events roll off. The ring grows on demand up
// to the bound, so a backend holds room for the events it recorded, not
// the 1.1 MiB a full ring takes.
const traceCap = 16384

// Timeline returns be's accumulated trace timeline when be is a
// connection backend (every backend this package constructs is). The
// timeline spans the backend's whole lifetime — every Run appends into
// the same ring, delimited by "run" instants — which is what lets
// `rvx -trace` export one trace for a multi-experiment regeneration.
func Timeline(be Backend) (*obs.Timeline, bool) {
	b, ok := be.(*connBackend)
	if !ok {
		return nil, false
	}
	return b.tl, true
}

// WriteTrace writes be's accumulated shard-lifecycle trace as Chrome
// trace-event JSON (Perfetto-loadable). It returns an error for
// backends with no timeline (e.g. an rvd client, whose trace lives
// daemon-side at GET /v1/sweeps/{id}/trace).
func WriteTrace(be Backend, w io.Writer) error {
	tl, ok := Timeline(be)
	if !ok {
		return fmt.Errorf("dist: backend has no trace timeline")
	}
	return tl.WriteTrace(w)
}
