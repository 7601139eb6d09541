// Package dist is the distributed sweep dispatcher: it takes the same
// (graph, parameter-block) shards that sim.Sweep runs on in-process
// workers and dispatches them to worker processes — forked subprocesses
// on one machine (NewLocal, `rvx --dist-workers`), TCP-connected
// `rvworker -listen` processes on other machines (Dial), or protocol
// workers inside this process (NewInProcess, the reference everything
// else is pinned against) — over a length-prefixed binary protocol
// (v6) built around failure as a normal event: shards requeue off dead
// connections, a watchdog reaps a worker that leaves its shard
// unanswered, and workers may be respawned (WithRespawn) mid-sweep.
// Dial absorbs workers that come up slower than their coordinator by
// retrying each address with capped exponential backoff plus jitter
// (DialRetry, DialWith).
//
// Package rvd builds the long-running service on top of this dispatcher:
// a daemon owning one fleet and a persistent content-addressed result
// store keyed by the canonical ShardDesc encodings this package pins
// (see rvd's doc.go for the cache-key derivation and crash-recovery
// contract). The codec properties dist guarantees — canonical
// decode→encode fixed point, hardened bounded decoding — are exactly
// what make those cache keys stable and safe.
//
// # Protocol framing (v6)
//
// A connection carries varint length-prefixed frames in both directions:
// each frame is binary.AppendUvarint(len(payload)) followed by the
// payload, whose first byte is the frame type. Payloads are capped (64
// MiB) so a corrupt length cannot demand unbounded memory. Every frame
// except the hello additionally carries a trailing 32-bit FNV-1a
// checksum of its payload inside the length-prefixed region (the hello
// keeps v1 framing so version negotiation never depends on v2 rules).
//
//	worker → coordinator   hello   {version}            once, on connect; no checksum
//	coordinator → worker   shard   {id, ShardDesc}      one in flight per connection
//	worker → coordinator   result  {id, ShardResult}    every case of the shard plus its view signature
//	worker → coordinator   error   {id, message}        deterministic per-shard failure; never retried
//
// No frame tells a worker to stop: the coordinator closes its end of the
// transport, and the worker exits on the EOF. Tags 3 (the v1 whole-shard
// result), 5 (the v2–v4 shutdown frame), 6 (the v2–v5 liveness frame), 7
// (the v2–v4 result chunk) and 8 (the v3 mid-shard migration frame) are
// retired and never reused; a shard lost with its connection requeues
// from case zero. v4 changed only the descriptor encoding (see the
// schema below), and v5 and v6 only the frames, so the codecs' own
// generation, CodecVersion, is still 4. The checksum is the line
// between the two failure classes: a frame that fails its checksum (or
// desyncs the stream) means the CONNECTION can no longer be trusted — it
// is severed and its in-flight shard requeues — while a frame that
// decodes cleanly but names an unknown program or an
// out-of-range start is a deterministic per-shard error that would fail
// identically on any worker, so it surfaces as the sweep error instead
// of being retried.
//
// # Dispatch and elastic membership
//
// Each connection holds one shard at a time: the coordinator sends a
// shard, reads the worker's answer and only then deals the connection
// the next one, and the worker reads, executes and answers in one loop.
// A 4-deep pipeline window measured no faster on the production
// sweeps, in process, on forked workers or over loopback TCP: a shard
// takes milliseconds, its round trip microseconds.
// Connections may join at any time: a NewLocal backend built
// WithRespawn forks a replacement process whenever a connection dies,
// within a bounded respawn budget, and the replacement joins the
// in-flight sweep.
//
// A worker serves shards on one pooled sim.Session, so its runner
// coroutines and script buffers stay warm across every shard it drains —
// the cross-process analogue of one sim.Sweep worker.
// cmd/rvworker is the standalone worker binary (stdin/stdout or TCP);
// any other binary becomes a worker pool for itself by calling
// RunWorkerIfChild first thing in main.
//
// # Requeue, attempts, liveness
//
// The coordinator holds one shard queue per Run (dealt largest-first,
// sim.Sweep's policy). When a connection dies — read error, checksum
// failure, stream desync, transport cut — its in-flight shard returns
// to the queue and re-deals to a surviving (or newly joined)
// connection, where it re-executes from case zero — sound because
// descriptors are self-contained and execution is deterministic. A sweep
// fails outright only when no live connection remains. Each shard's
// dispatch count is bounded by Tuning.MaxAttempts, so a poison shard
// that kills every worker it lands on surfaces as a per-shard error
// after MaxAttempts dispatches instead of cycling forever.
//
// Liveness is a deadline on each dispatch: a connection whose shard is
// still unanswered Tuning.BaseDeadline plus Tuning.PerCase per case
// after it was sent (by default 10 s plus 50 ms per case, far beyond
// any production shard) is severed by the watchdog and handled exactly
// like a death; a connection that has not said hello is on the same
// clock from its start. RunStats (via LastRunStats) reports how much of
// this machinery a sweep actually exercised.
//
// # Descriptor schema
//
// A ShardDesc carries everything a worker needs to reproduce the shard
// bit-for-bit:
//
//	ShardDesc  uvarint(len) || graph.Encode image
//	           uvarint(SeedLo) || uvarint(SeedHi)
//	           Batch (1 byte) || uvarint(nCases) || nCases x CaseDesc
//
// The seed range is validated against seeded program arguments — a
// cheap end-to-end transposition guard — and the Batch flag selects the
// execution strategy (see below). A CaseDesc names its programs as
// registry entries (RegisterProgram) — programs are closures and cannot
// travel, so the wire carries (name, args) resolved identically on both
// sides, the classic task-registry shape. Descriptor decoding is
// hardened the same way view.Tree.Decode is: arbitrary bytes produce an
// error or a valid descriptor, never a panic or a disproportionate
// allocation (pinned by FuzzShardDecode and FuzzShardResultDecode).
//
// # Batched shard execution
//
// A shard can be flagged Batch (Planner.SetBatch): the worker then runs
// each maximal run of consecutive k-agent cases as the lanes of one
// sim.RunBatch call (see sim's package comment) instead of one RunMany
// call per case. Two-agent cases run one Session.RunPrograms call each
// whatever the flag says. The flag selects an execution strategy only:
// batched results are pinned to full per-case equality, wakeup counts
// included, so the aggregation invariant below is untouched. Alongside
// the pooled session and batch arena, each connection keeps a small
// graph cache — decoded graphs plus their lazily-derived view
// signatures, on both the worker and coordinator sides — since a
// sweep's shards repeat a handful of graphs and the decode plus
// signature derivation are the protocol's largest per-shard costs.
//
// # Byte-identical aggregation
//
// The invariant the whole package is built around: a sweep executed
// through ANY backend returns, per case, exactly the Go value the
// in-process engine produces — sim.Result / sim.MultiResult equality
// field by field, Meetings order and slice nil-ness included — and the
// coordinator places shard results back at their shard's input indices
// (never in completion order), so the flattened output of Planner.Run is
// indistinguishable from running sim.Sweep in-process. This holds
// because every run is deterministic, the result codec is lossless, and
// aggregation is position-stable by construction — and it must keep
// holding with faults injected: a shard's result arrives whole in one
// checksummed frame or not at all, requeued shards re-execute from their
// self-contained descriptors, and duplicated work is harmless because
// both executions produce the same bytes. The randomized differential suite pins it across mixed graphs,
// parameter blocks, case kinds and worker counts; the fault-injection
// suite re-pins it across seeded schedules of dropped, delayed and
// garbled frames, severed connections, crashing workers (a kill-matrix
// over every worker × crash-point pair) and hung workers reaped by the
// deadline watchdog; and the CI smoke jobs re-check it end-to-end
// through real forked worker processes (`rvx --dist-workers 2` must
// reproduce the in-process experiment tables byte-for-byte, with and
// without crash-injected workers being respawned mid-sweep).
//
// # Fault injection contract
//
// WithCrashAfterShards (and cmd/rvworker's -crash-after flag, or
// CrashEnv for forked workers) makes a worker execute its n-th shard,
// withhold its result frame and sever — the crashed-process shape, the
// one fault the build itself carries, for the chaos smoke. The rest of
// the harness is test code: FaultConn (faultconn_test.go) is a seeded
// deterministic transport wrapper applying write-side faults at frame
// granularity (the protocol flushes once per frame) — drop, delay,
// single-byte garble, sever-after-N-writes — to whichever direction of
// a link a test wraps, and NewFromStreams (export_test.go) builds a
// backend over such links. Same seed, same schedule: every failing
// fault run is replayable.
//
// # Trace timelines and metrics
//
// The coordinator stamps every shard's lifecycle into a bounded ring
// timeline (internal/obs.Timeline) owned by the backend, accumulating
// across every Run of the backend's lifetime with run-start/run-end
// markers delimiting sweeps. Each shard's story lives on its own track
// (Chrome trace tid = shard index): a "dispatch" instant when the shard
// is handed to a connection (arg: conn and attempt) and a closing
// "shard" span covering dispatch→result — with "requeue" and
// "attempts-exhausted" instants marking the fault machinery when it
// fires. Connection lifecycle ("conn-join", "conn-dead") rides negative
// tracks so worker churn reads as its own lane group. By construction
// span start <= dispatch ts <= span end (the start is stamped under the
// coordinator lock before the dispatch instant is emitted), which the
// trace round-trip test pins. WriteTrace exports a backend's timeline as
// Chrome trace-event JSON loadable in Perfetto or chrome://tracing; `rvx -trace out.json` wires it to the CLI. The
// coordinator also publishes counters and gauges (dispatches, requeues,
// result frames, dead and joined connections, per-conn inflight gauges)
// into obs.Default(), exposed by rvd's GET /metrics —
// all on coordination paths only, never inside the engine (see obs's
// zero-overhead contract).
//
// # View exchange
//
// The protocol's graph-integrity check rides the view codec: each shard
// result carries the view signature — view.Tree.AppendEncode of the
// executed graph's truncated view from node 0 (depth bounded by a node
// budget) — which the coordinator re-derives from the descriptor it sent
// and compares byte-for-byte after a hardened round trip through
// view.Tree.Decode. The first cross-process consumer of the view wire
// format the ROADMAP called for: agents' label structure, not an
// unrelated checksum, is what certifies the graph survived the wire.
package dist
