package rvd

import (
	"repro/internal/obs"
)

// jobTraceCap bounds each job's trace timeline: enough for every shard's
// dispatch/completion pair plus job-level markers on any realistic sweep
// (a job of N shards, all executed, records 2N + 3 events); past it the
// oldest events are overwritten and counted as dropped. The ring grows
// on demand up to the bound, so a finished job holds only the events it
// recorded (a 16-event ring for a job of up to 6 shards), not 4,096.
const jobTraceCap = 4096

// The daemon's metric families, published into obs.Default() and served
// by GET /metrics. Registration happens once at package init; everything
// the scheduler and store touch afterwards is a lock-free atomic op —
// the store path is disk-bound, so a few atomic adds per entry are
// noise.
var (
	obsJobsSubmitted *obs.Counter
	obsJobsDone      *obs.Counter
	obsJobsFailed    *obs.Counter
	obsShardsExec    *obs.Counter
	obsShardsHit     *obs.Counter
	obsQueueDepth    *obs.Gauge
	obsQueueWaitNs   *obs.Histogram

	obsStoreHits     *obs.Counter
	obsStoreMisses   *obs.Counter
	obsStoreQuar     *obs.Counter
	obsStoreEntries  *obs.Gauge
	obsStoreBytes    *obs.Gauge
	obsStoreReadB    *obs.Counter
	obsStoreWrittenB *obs.Counter
)

func init() {
	r := obs.Default()
	latency := obs.ExpBuckets(1000, 24) // 1µs doubling to ~8s
	obsJobsSubmitted = r.Counter("rvd_jobs_submitted_total", "sweep jobs accepted and queued")
	obsJobsDone = r.Counter("rvd_jobs_done_total", "sweep jobs completed with every shard stored")
	obsJobsFailed = r.Counter("rvd_jobs_failed_total", "sweep jobs failed (fleet error or store write failure)")
	obsShardsExec = r.Counter("rvd_shards_executed_total", "shards executed on the worker fleet")
	obsShardsHit = r.Counter("rvd_shards_cache_hits_total", "shards answered from the result store without execution")
	obsQueueDepth = r.Gauge("rvd_queue_depth", "unfinished shards across all jobs (admission-control pressure)")
	obsQueueWaitNs = r.Histogram("rvd_queue_wait_ns", "per-job wait from submission to scheduler activation", latency)

	obsStoreHits = r.Counter("rvd_store_hits_total", "store reads answered with a verified entry")
	obsStoreMisses = r.Counter("rvd_store_misses_total", "store reads finding no valid entry (absent or quarantined)")
	obsStoreQuar = r.Counter("rvd_store_quarantines_total", "entries quarantined after failing verification on read")
	obsStoreEntries = r.Gauge("rvd_store_entries", "valid entries currently indexed in the result store")
	obsStoreBytes = r.Gauge("rvd_store_bytes", "size on disk of the indexed result-store entries")
	obsStoreReadB = r.Counter("rvd_store_read_bytes_total", "entry bytes read and verified from the store")
	obsStoreWrittenB = r.Counter("rvd_store_written_bytes_total", "entry bytes written durably to the store")
}

// truncDetail bounds a free-form trace/log detail string so one huge
// error text cannot bloat a timeline or log line.
func truncDetail(s string) string {
	if len(s) > 96 {
		return s[:96] + "…"
	}
	return s
}
