// Package sim executes the paper's execution model: anonymous agents on
// a port-labeled graph, moving in synchronous rounds, started by the
// adversary with given delays, meeting when they occupy the same node in
// the same round (crossings inside an edge do not count). Run/RunPrograms
// drive the two-agent rendezvous model; RunMany generalizes to k agents
// (the gathering setting of the paper's related work [25]).
//
// The scheduler is strictly deterministic: each agent program runs as a
// coroutine that the scheduler resumes in lock-step — the scheduler and
// a program never run at once — and the programs share no state. Long mutual waits are fast-forwarded in O(1), which is what
// makes the paper's padding-heavy algorithms (whose round counts are
// exponential) simulable: simulated time is decoupled from physical work.
//
// # Batched execution
//
// A per-move interaction — a wakeup — costs one request/grant hand-off:
// a coroutine switch into the program and one back, each far dearer
// than a scheduler round. Programs that know a stretch of actions in
// advance submit it as one agent.World.MoveSeq script, and the
// scheduler steps it itself, resuming the program once per script. Both
// engines step through one counted burst kernel (burst in sim.go):
// while some agent's next round is a scripted move, every agent whose
// cursor is on a script action walks up to n rounds — a move steps, a
// ScriptWait stays put — with cursor, position and entry in locals and
// two agents' dependency chains in flight at once. Every other agent is
// held: n shrinks to the rounds until it would move (lead, ScriptWait
// run, Wait or finished program), and it is advanced once before the
// kernel returns, so a grant earned on the last round is pending for
// the next fetch or for release. A burst also ends after a walker's
// script end or escape (past a repeat block's last copy) and at the
// first round that ends on a co-location still to record; with nobody
// about to move it is the O(1) skip of the stretch. The world layer defers and merges adjacent Wait
// calls into the next script's lead — invisible to the program, since
// waiting changes no percept and no position. Batched and unbatched
// execution are behavior-identical (same Result field by field), pinned
// across the STIC suite and randomized program pairs.
//
// # Degree-reporting grants
//
// agent.World.MoveSeqDegrees is MoveSeq with the degree percept streamed
// alongside the entry ports: the runner fills a second per-agent buffer
// from the burst's position log — degrees[i] is the degree of
// the node occupied after action i, i.e. the node a move enters (degree
// observed on entry) or the unchanged current node for a ScriptWait —
// and the grant hands both slices back under the same
// valid-until-next-action ownership contract. Rel-encoded moves resolve
// identically on both calls, and deferred-wait merging is oblivious to
// the degree flag: a pending wait of any length rides the script request
// as its lead — fast-forwarded in O(1) with the agent parked and no
// percepts produced, before the script's first action — so
// percept-streaming producers batch across wait boundaries exactly like
// plain scripted ones, and the grant's entry and degree streams always
// line up one-to-one with the caller's actions.
// agent.RunScriptDegrees defines the semantics action by action, and
// agent.UnbatchedDegrees degrades exactly the degree-reporting calls so
// the differential suites pin the new percept stream in isolation.
//
// Degree grants exist for percept-bound producers — walks whose only
// reason to wake up at a node was a Degree() call before the next
// scripted stretch. With the degree in the grant, rendezvous's view
// walk, path enumeration and SymmRV bookkeeping compile whole phases
// into a handful of scripts; Session.Wakeups counts the scheduler-agent
// interactions per run and the wakeup regression tests pin the E17
// workload's ceiling. Session.WakeupsByPhase breaks the count down by
// the agent.Phase tag the producing procedure set (viewWalk, explore,
// symmRV, schedule), so a batching regression names its producer.
//
// The complementary channel is agent.RunSeq, the side-effects-only
// script: the caller declares it will not read the percept streams, the
// grant carries none, and the script may run-length-encode whole wait
// runs as single SeqWait actions that the scheduler — like the lead —
// consumes in O(1) with no per-round buffer fills. Percept-free streams
// (label-schedule slots and gaps, duration-padding pads, cached-walk
// replays) ride this path, so an entire schedule phase is a couple of
// script requests regardless of how many rounds its passive stretches
// span.
//
// A RunSeq script may also declare repeat blocks (agent.SeqRepeat): the
// label schedule's active slots are copies of one closed UXS round trip.
// A runner walks a block's copy through the burst kernel as usual while
// recording each round's node and entry port. If the copy ends on the
// node and entry it began from, the record is closed: every later copy
// of the same actions from that node and entry, in the same block or a
// later one, is replayed — its nodes copied from the record into the
// burst's position log instead of stepped. Replay changes how the
// rounds are driven, never what they are: every round still reaches the
// co-location scan, and moves, Clock(), meeting rounds and wakeups are
// those of walking. A copy with any round stepped outside a burst (the
// observer path, the k-agent per-move fallback, a mutual-wait skip) is
// not recorded, and acquire resets the record, so a record never
// outlives its run or its graph. Session counts the replayed
// agent-rounds and publishes them as sim_rounds_replayed_total.
//
// # Runner pooling
//
// A runner — the coroutine and per-agent buffers behind one simulated
// agent — is reusable: each runner owns one long-lived iter.Pull
// coroutine that runs one assigned program after another, parked
// between runs, and a Session hands released runners to subsequent
// runs, so a sweep shard's thousands of runs create nothing after
// warmup. A request is a yield, and the grant is a runner field the
// scheduler sets before the next resume. Ending a run early delivers
// any grant the program earned, then resumes it once with an abort flag
// so it unwinds; both steps are synchronous, so no stale message
// outlives a run. Because a request is a yield of the program's own
// coroutine, agent.World methods may be called only from the program
// itself; a call from any other goroutine is undefined. Sweep threads
// one Session per worker through Scratch.Session and closes it when the
// worker retires; Close stops every pooled coroutine.
//
// # K-agent fast-forward invariants
//
// RunMany advances all k agents together between event boundaries. The
// correctness of its fast-forward rests on four invariants:
//
//  1. Event horizon. From a boundary at round t, every agent can be
//     driven horizon = min(budget-t, next appearance - t, min over
//     present runners of runway()) rounds without resuming any program,
//     where runway is the script's pending lead plus the rounds left in
//     its segment, up to its next escape with every copy of a repeat
//     block counted (a lower bound on the script's rounds, which only
//     shortens horizons), the remaining wait, 1 for a pending single
//     move, and unbounded for a terminated program. No
//     runner reaches the request-pulling state before the horizon's
//     final round, so fetch — the only resume of a program — happens
//     only at boundaries. Degree-reporting scripts have the same runway
//     as plain ones: the degree buffer is filled as positions advance,
//     never by extra interactions.
//
//  2. Quiet skips. Rounds in which no present agent moves cannot create
//     a meeting or a gathering: positions are static and every
//     co-located pair was already recorded (detection runs at round 0,
//     after every appearance, and on every round a burst stops for).
//     Such stretches — bounded by each agent's roundsUntilMove — are
//     skipped in bulk without detection.
//
//  3. Moving rounds. Rounds in which an agent moves run in bursts that
//     hold the waiting agents (see Batched execution) and stop on the
//     first round that ends on a co-location still to record; that
//     round's detection then runs the allocation-free pairwise scan in
//     (i, j) order, so the Meetings slice is ordered by round, then
//     lexicographically, identically to the round-by-round reference
//     engine. While some pair has not met, a burst stops on any
//     co-location of such a pair; once every pair has met, only the
//     O(k) first-gathering check remains, and after the gathering
//     nothing. From bucketScanMinK agents up the scans are
//     position-bucketed (O(k) per round) with byte-identical output,
//     pinned by the large-k differential suite. A pending single move
//     (a per-move program) is the one exception: every agent advances
//     one round and the detection follows.
//
//  4. Appearance boundaries. When a horizon ends exactly at an
//     appearance round, that round's detection is deferred past the
//     boundary so the new agents participate in the scan — the reference
//     engine processes appearances before detection, and meeting order
//     within the round must match it exactly.
//
// RunManyReference retains the one-iteration-per-round engine as the
// executable spec; the differential engine-equivalence suite pins
// RunMany to it, full MultiResult equality included, across randomized
// populations of scripts, walkers, waiters and UniversalRV agents.
//
// # K-agent shard batching
//
// RunBatch executes a shard of k-agent cases on one graph as
// interleaved lanes of one Batch arena: each lane is a parked multiRun
// advanced one scheduler iteration at a time, acquiring and releasing
// its runners exactly as RunMany does. Lane i returns exactly
// Session.RunMany of case i, per-lane wakeup counts (Batch.Wakeups)
// included, pinned by the randomized differential suite. Two-agent cases have no batch
// form: every one runs on Session.RunPrograms.
//
// # Beyond one process
//
// Sweep shards cases by (graph, parameter block) within this process;
// package dist lifts exactly those shards across process (and machine)
// boundaries — serializable shard descriptors dispatched to rvworker
// processes over a length-prefixed binary protocol, each worker draining
// its shards on one pooled Session, with aggregation pinned
// byte-identical to the in-process Sweep. See dist's package comment for
// the protocol, the descriptor schema, and the invariant.
package sim
