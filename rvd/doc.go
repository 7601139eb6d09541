// Package rvd is the crash-safe rendezvous daemon: a long-running
// process that owns a dist worker fleet, a persistent content-addressed
// result store, and a durable job journal, and serves sweep jobs over an
// HTTP/JSON API. Its defining property is that kill -9 at any instant
// loses at most the uncommitted suffix of in-flight work: accepted jobs
// are never forgotten, stored results are never recomputed, and corrupt
// state is quarantined and recomputed rather than served.
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
// unreachable on disk, and Open drops that binary's journaled jobs,
// whose shards no longer decode, with a logged notice; a protocol bump
// that changes only the frames moves no key. Values are the shard's
// aggregated result bytes (dist.ShardResult.AppendEncode); each entry
// file carries a magic header, the embedded key, a bounded length, and
// an FNV-1a 64 checksum over key+value (see store.go).
//
// # Journal frame schema
//
// The job journal is an append-only file: the header line "rvdj1\n"
// followed by netstring-style frames, each
//
//	uvarint(len(body)+4) || body || fnv1a32(body) (little-endian)
//
// mirroring the dist wire framing (writeFrameSum) scaled down to a
// file. Bodies are
//
//	submit: 0x01 || uvarint(jobID) || uvarint(nShards) ||
//	        nShards x ( uvarint(len) || canonicalShardBytes )
//	done:   0x02 || uvarint(jobID)
//
// A submit record is appended and fsync'd BEFORE the submitter receives
// the job id (write-ahead discipline); the done record is appended only
// after every shard's result is durably in the store. Replay accepts
// the longest valid prefix and truncates the rest: a frame cut by a
// crash, or arbitrary corruption past the last good frame, costs
// exactly the uncommitted suffix (pinned by FuzzJournalDecode and the
// truncation-at-every-offset tests). Compaction atomically rewrites the
// file with only the still-incomplete submit records (temp file, fsync,
// rename, directory fsync) on a completion schedule and at every open.
//
// # Crash-recovery state machine
//
// A job moves Queued → Running → Done/Failed; Suspended is what a
// still-incomplete job's watchers observe while the daemon shuts down
// gracefully. Recovery at Open composes three replays:
//
//	journal   submit-without-done records are re-enqueued verbatim
//	          (same id, same canonical shard bytes, same keys);
//	store     the index is reloaded by directory scan, so every shard
//	          whose result landed before the crash resolves as a cache
//	          hit — completed shards are structurally never re-executed;
//	fleet     cmd/rvd re-dials workers with capped exponential backoff
//	          plus jitter (dist.DialWith), tolerating workers that
//	          restart slower than the daemon.
//
// The scheduler then resumes each job from its last completed shard.
// Because results are stored before the done record and jobs are
// journaled before acknowledgment, every interleaving of crash points
// re-converges to byte-identical output — the differential harness in
// daemon_test.go pins cold run, warm run, kill -9 + resume, truncated
// journal, and bit-flipped cache entry to the same bytes.
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
//	                             journal appends and fsync latency,
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
