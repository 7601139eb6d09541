// Package sim executes the paper's execution model: anonymous agents on
// a port-labeled graph, moving in synchronous rounds, started by the
// adversary with given delays, meeting when they occupy the same node in
// the same round (crossings inside an edge do not count). One scheduler
// loop serves two agents and k: Run/RunPrograms drive the two-agent
// rendezvous model as its two-agent case, stopped by the first meeting,
// and Session.RunMany the k-agent one (the gathering setting of the
// paper's related work [25]).
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
// scheduler steps it itself, resuming the program once per script. The
// loop steps through one counted burst kernel (burst in sim.go):
// while some agent's next round is a scripted move, every agent whose
// cursor is on a script action walks up to n rounds — a move steps, a
// ScriptWait stays put — with cursor, position and entry in locals and
// two agents' dependency chains in flight at once. Every other agent is
// held: n shrinks to the rounds until it would move (lead, ScriptWait
// run, Wait or finished program), and it is advanced once before the
// kernel returns, so a grant earned on the last round is pending for
// the next fetch. A burst also ends after a walker's
// script end or escape (past a repeat block's last copy) and at the
// first round that ends on a co-location still to record; with nobody
// about to move it is the O(1) skip of the stretch. The world layer defers and merges adjacent Wait
// calls into the next script's lead — invisible to the program, since
// waiting changes no percept and no position. Batched and unbatched
// execution are behavior-identical (same Result field by field), pinned
// across the STIC suite and randomized program pairs.
//
// # Percept grants
//
// A MoveSeq grant streams both percepts of every round it ran: the
// runner fills an entry buffer and a degree buffer, the latter from the
// burst's position log — degrees[i] is the degree of the node occupied
// after action i, i.e. the node a move enters (degree observed on entry)
// or the unchanged current node for a ScriptWait — and the grant hands
// both slices back under the valid-until-next-action ownership contract.
// A pending wait of any length rides the script request as its lead,
// fast-forwarded in O(1) with the agent parked and no percepts produced
// before the script's first action, so the streams always line up
// one-to-one with the caller's actions and producers batch across wait
// boundaries. With the degree in the grant, percept-bound producers —
// rendezvous's view walk, path enumeration and SymmRV bookkeeping, whose
// only reason to wake at a node was a Degree() call — compile whole
// phases into a handful of scripts. agent.RunScript defines the
// semantics action by action. Session.Wakeups counts the
// scheduler-agent interactions per run, and the wakeup regression tests
// pin the E17 workload's ceiling. The sim_wakeups_phase_total samples
// break the count down by the agent.Phase tag the producing procedure
// set (viewWalk, explore, symmRV, schedule), so a batching regression
// names its producer.
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
// burst's position log instead of stepped. Replay changes how the rounds
// are driven, never what they are: every round still reaches the
// co-location scan, and moves, Clock(), meeting rounds and wakeups are
// those of walking. A copy with any round stepped outside a burst (the
// round of a pending single move, a mutual-wait skip) is not recorded,
// and acquire resets the record, so a record never outlives its run or
// its graph. Session counts the replayed agent-rounds and publishes them
// as sim_rounds_replayed_total.
//
// # Runner pooling
//
// A runner — the coroutine and per-agent buffers behind one simulated
// agent — is reusable: each runner owns one long-lived iter.Pull
// coroutine that runs one assigned program after another, parked between
// runs, and a Session hands released runners to subsequent runs, so a
// sweep shard's thousands of runs create nothing after warmup. A request
// is a yield, and the grant is a runner field the scheduler sets before
// the next resume. Ending a run resumes each program still parked in a
// World call once, with an abort flag set, so it unwinds from that call
// before the run returns and no stale message outlives the run; a grant
// the program had earned is dropped. Because a request is a yield of the
// program's own coroutine, agent.World methods may be called only from
// the program itself; a call from any other goroutine is undefined. A
// Session is used by one goroutine, one run at a time, and holds no
// lock: Sweep threads one Session per worker through Scratch.Session and
// closes it when the worker retires; Close stops every pooled coroutine.
//
// # Fast-forward invariants
//
// RunPrograms and RunMany run one loop (runState.loop). Each iteration
// starts the agents due to appear and pulls a request from every agent
// that finished its last action — fetch, the only resume of a program —
// then steps: one burst, bounded by the budget and the next appearance,
// or one round of every agent when a single move is pending. Its
// correctness rests on three invariants:
//
//  1. No program runs inside a step. A burst ends on the round a
//     walker's segment ends and holds every other runner no longer
//     than its lead, wait run or program end, so no runner reaches the
//     request-pulling state before a step's last round. The degree
//     buffer is filled as positions advance, never by extra
//     interactions.
//
//  2. Quiet skips. Rounds in which no present agent moves cannot create
//     a meeting or a gathering: positions are static and every
//     co-located pair was already recorded. Such stretches — bounded by
//     each agent's roundsUntilMove — are skipped in bulk without
//     detection.
//
//  3. Record before pull. A step stops on the first round that ends on
//     a co-location still to record — while some pair has not met, one
//     of such a pair; once every pair has, only the first gathering;
//     after it, nothing — and that round's detection, the
//     allocation-free pairwise scan in (i, j) order, runs at once,
//     before any request of the round is pulled. An appearance round is
//     the exception: its detection, a full scan, runs only after the new
//     agents appear (and the round's pulls), so that they take part. The
//     Meetings slice is thus ordered by round, then lexicographically,
//     identically to the round-by-round reference engine.
//
// The tests retain the one-iteration-per-round engine as the executable
// spec (RunManyReference, in export_test.go); the differential
// engine-equivalence suite pins RunMany to it, full MultiResult equality
// included, across randomized populations of scripts, walkers, waiters
// and UniversalRV agents.
//
// # Lone agents
//
// Solo runs one agent with no scheduler: an agent perceives only its own
// node's degree and entry port, never another agent, so a procedure's
// duration or an agent's action stream is read off one lone run, and so
// is whatever is watched of an agent up to a meeting: CaptureTimeline
// draws each agent's nodes from a lone run of the rounds it lived (pinned
// against the engine's meetings by TestTimelineMatchesEngineRandomized),
// and SoloTrace writes its trajectory for package election. Solo answers
// every World call at once from the graph (no coroutine, no wakeup, an
// unrecorded wait in O(1)) and walks every SeqRepeat copy, through
// agent.RunSeq's fallback. TestSoloBatchedMatchesUnbatched pins it
// against agent.Unbatched, under budgets that cut every kind of call;
// rendezvous's TestLoneClockMatchesEngine pins its clocks against the
// engine's, and TestSoloConcurrent its pooled worlds.
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
