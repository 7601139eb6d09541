// Package rvd is the crash-safe rendezvous daemon: a long-running
// process that owns a dist worker fleet and a persistent
// content-addressed result store, and serves sweep jobs over HTTP, one
// exchange per job. Every shard is a deterministic function of its
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
//	          job stream cut short or a suspended job as an error that
//	          says so), and the scheduler executes only the shards the
//	          store cannot answer.
//
// A result is stored (temp file, fsync, rename) before its shard counts
// as done, so every interleaving of crash points re-converges to
// byte-identical output — the differential harness in daemon_test.go
// pins cold run, warm run, bit-flipped cache entry and kill -9 +
// resubmit to the same bytes. Open reads nothing in Dir but the store,
// so a job journal an earlier version left there resumes no job.
//
// # One exchange per job
//
// A job is one HTTP request: POST /v1/sweeps with Content-Type
// application/octet-stream, whose body is one dist checksummed frame per
// shard (dist.WriteFrameSum over the shard's canonical ShardDesc
// encoding), read with dist.ReadFrameSum under a 64 MiB bound. Errors
// before the response starts keep their codes: 400 for a bad frame or
// shard, 503 with Retry-After when admission control sheds the job, 503
// while the daemon shuts down. Otherwise the answer is 200 and a stream
// of checksummed frames: one per shard as it completes (its index, hit
// or executed, its result bytes), flushed after each completion batch,
// then one terminal frame (the job id, its final state and error text).
// rvd.Client.Run is that one request, and rvd has no codec of its own:
// the frames are dist's, their payloads the dist encodings.
//
// Each result is read from the store at most once per job: the bytes
// resolveJob's store read verified, or the bytes the scheduler just
// stored, ride the shard's completion event to the job's stream. A job
// holds result bytes only while its submitting stream is attached; the
// stream takes each event's bytes as it sends them, and if it ends early
// (the client hung up) the job drops the rest and keeps no more.
//
// Three older endpoints stay, deprecated, because perfbench's traced
// daemon run (phaseSplit in perfbench/daemon.go) times them as its
// submit, complete and fetch phases: the JSON form of POST /v1/sweeps
// (base64 shards, 201 with the job id), GET /v1/sweeps/{id}/events
// (NDJSON, one line per completion, then the terminal line) and GET
// /v1/results/{key}. A job submitted as JSON holds no result bytes. The
// events stream and a job's own stream run one tail loop, and both
// submit forms one error-to-status mapping. Once phaseSplit times the one
// exchange (submit, first frame, terminal frame), all three go.
//
// Shutdown closes the daemon before the HTTP server: Close refuses new
// jobs, lets the in-flight batch finish and starts no other, and ends
// every incomplete job Suspended, which ends its open streams with a
// suspended terminal frame, so the server's Shutdown that follows has no
// stream to wait for.
//
// # What a finished job keeps
//
// The daemon keeps the last 256 jobs to finish (maxFinishedJobs) in
// memory, so status, events and trace queries answer after a job ends;
// a query for an older job of this boot answers 410 Gone, and one for an
// id this boot never issued 404. A job that ends Done or Failed keeps
// its status counters, its shards' cache keys, its completion events
// and its trace timeline, a ring that grows on demand and so holds only
// the events the job recorded. It drops its decoded shard descriptors:
// only the scheduler reads them, and it never dispatches a finished job
// again. It holds no result bytes once its stream has sent them, and a
// JSON-submitted job never holds any.
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
//	GET /v1/sweeps/{id}/events   NDJSON: one line per shard completion,
//	                             then the terminal state line
//	                             (deprecated; see above)
//	GET /v1/stats                daemon counters plus store size on disk
//	                             and per-job exec-vs-hit splits
//
// cmd/rvd's -pprof flag mounts net/http/pprof under /debug/pprof/ on
// the same listener, and -log-level sets the log/slog threshold
// (Config.Log; per-batch dispatch lines are Debug, lifecycle Info,
// failures Warn).
package rvd
