// Package rvd is the crash-safe rendezvous daemon: a long-running
// process that owns a dist worker fleet and a persistent
// content-addressed result store, and serves sweep jobs over an
// HTTP/JSON API. Every shard is a deterministic function of its
// canonical bytes, so the store is the daemon's only durable state. Its
// defining property is what the store guarantees: stored results are
// never recomputed, corrupt entries are never served, and kill -9 at any
// instant costs only the shards not yet stored, which a resubmission of
// the same sweep recovers.
//
// # Cache-key derivation
//
// Every shard's result is cached under
//
//	Key = SHA-256( uvarint(len(stamp)) || stamp || canonicalShardBytes )
//
// where stamp is the daemon's version stamp (cmd/rvd folds
// dist.CodecVersion and experiments.RegistryVersion into it) and
// canonicalShardBytes is the shard's canonical dist wire encoding,
// obtained by decoding the submitted bytes and re-encoding them — the
// decode→encode fixed point is pinned by dist's FuzzShardDecode, so
// equivalent submissions hash equal regardless of how they were framed
// by the submitter. The stamp makes results computed by an incompatible
// binary structurally unreachable (a new key space) instead of wrongly
// served. So a codec bump leaves an older binary's store entries
// unreachable on disk; a protocol bump that changes only the frames
// moves no key. Values are the shard's aggregated result bytes
// (dist.ShardResult.AppendEncode); each entry file carries a magic
// header, the embedded key, a bounded length, and an FNV-1a 64 checksum
// over key+value (see store.go).
//
// # Crash recovery
//
// A job moves Queued → Running → Done/Failed; Suspended is what a
// still-incomplete job's watchers observe while the daemon shuts down
// gracefully. Jobs live only in memory: a restart, graceful or kill -9,
// forgets them, and each boot numbers its jobs from the wall clock in
// microseconds so no id repeats across restarts of one state dir.
// Recovery is three steps, none of them a replay of jobs:
//
//	store     Open reloads the index by directory scan, so every shard
//	          whose result landed before the crash resolves as a cache
//	          hit — stored shards are structurally never re-executed;
//	fleet     cmd/rvd re-dials workers with capped exponential backoff
//	          plus jitter (dist.DialWith), tolerating workers that
//	          restart slower than the daemon;
//	client    the submitter resubmits the sweep (rvd.Client reports a
//	          broken event stream or a suspended job as an error that
//	          says so), and the scheduler executes only the shards the
//	          store cannot answer.
//
// A result is stored (temp file, fsync, rename) before its shard counts
// as done, so every interleaving of crash points re-converges to
// byte-identical output — the differential harness in daemon_test.go
// pins cold run, warm run, bit-flipped cache entry and kill -9 +
// resubmit to the same bytes. A job journal left in Dir by an earlier
// version is deleted at Open with a logged notice; its jobs are not
// resumed.
//
// # Quarantine semantics
//
// A store entry that fails verification on read — wrong magic, bad
// checksum, embedded key disagreeing with its filename, unreadable
// file — is never served and never fatal: it is renamed aside with a
// .corrupt suffix (preserved for post-mortems), logged, dropped from
// the index, and reported as a miss, so the scheduler recomputes the
// shard and the store heals with a fresh, verified entry.
//
// # Concurrency and admission control
//
// Concurrent sweeps multiplex over the one fleet: a single scheduler
// goroutine round-robins one shard per active job per turn into bounded
// batches (per-job fair dequeue), deduplicating identical cache keys
// within a batch so overlapping sweeps execute shared shards once.
// Admission control bounds total queued shards; a submission past the
// bound is shed with ErrOverloaded, which the HTTP layer surfaces as
// 503 + Retry-After.
//
// # Observability
//
// The daemon publishes into the process-wide obs registry (see
// internal/obs's doc.go for the naming scheme and zero-overhead
// contract) and serves it, together with per-job trace timelines, over
// its HTTP surface:
//
//	GET /metrics                 Prometheus text exposition: the rvd_*
//	                             families (jobs, queue depth and wait,
//	                             store hits/misses/bytes/quarantines,
//	                             shard exec-vs-hit counters) plus the
//	                             sim_* and dist_* families of the
//	                             engines and coordinator running in
//	                             this process
//	GET /v1/sweeps/{id}/trace    the job's lifecycle timeline as Chrome
//	                             trace-event JSON (Perfetto-loadable):
//	                             submit/activate/done markers, per-shard
//	                             dispatch instants, cache-hit instants,
//	                             and execution spans
//	GET /v1/sweeps/{id}/events   NDJSON completions interleaved with
//	                             periodic progress lines (done/total,
//	                             hit/exec split, elapsed) every
//	                             Config.ProgressEvery
//	GET /v1/stats                daemon counters plus store size on disk
//	                             and per-job exec-vs-hit splits
//
// cmd/rvd's -pprof flag mounts net/http/pprof under /debug/pprof/ on
// the same listener, and -log-level sets the log/slog threshold
// (Config.Log; per-batch dispatch lines are Debug, lifecycle Info,
// failures Warn).
package rvd
