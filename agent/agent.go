// Package agent defines the programming model for the paper's anonymous
// mobile agents. An agent is a deterministic program that, in each
// synchronous round, either waits at the current node or moves through a
// chosen port. Its only percepts are the degree of the current node and
// the port through which it last entered a node; node identities are never
// visible, agents carry no labels, and both agents of a rendezvous
// instance run the same program (package sim enforces the lock-step
// semantics, the start delay, and meeting detection).
//
// Programs are written as ordinary Go code against the blocking World
// interface and executed as coroutines by the simulator, which resumes
// each one whenever it owes the program a percept; the style matches the
// paper's imperative pseudocode (Algorithms 1-3) directly. A program acts
// only through the World, and a run may end while it is parked in any
// World call: none of its code after that call runs.
//
// # Batched move scripts
//
// Per-round interaction with the simulator costs a wakeup: a coroutine
// switch into the program and one back, far dearer than a simulated
// round. Portions of a program whose next actions do not depend on
// intervening percepts — UXS applications, backtracks along recorded
// entry ports, fixed path enumerations — can instead be submitted as one
// batched script via World.MoveSeq: the scheduler then steps the
// script one action per round itself (preserving exact per-round meeting
// detection) and wakes the program only once, when the whole script has
// run. Script actions are plain ints (see ScriptWait, Rel and ActionPort
// for the encoding); RunScript is the unbatched reference executor that
// defines MoveSeq's semantics action by action. The grant reports both
// percepts of every round it ran, the entry port and the degree of each
// visited node, so producers whose only inter-move percept is a Degree()
// call (view walks, path enumerations) batch whole phases instead of
// waking at every node.
//
// The duration of a script is always exactly len(actions) rounds — one
// round per action, moves and waits alike. Procedures that rely on
// duration padding (package rendezvous; every procedure must take an
// input-independent number of rounds, or UniversalRV's phase synchrony
// breaks) can therefore batch freely: batching changes only how the rounds
// are driven, never how many rounds elapse or where the agent is at each
// of them. The same action alphabet (ScriptWait runs included) drives the
// k-agent scheduler: sim's Session.RunMany fast-forwards all k agents over
// scripted stretches with the identical per-round semantics, so a program
// batches once and runs at full speed in both the two-agent and gathering
// models.
//
// RunSeq is the side-effects-only form, and its scripts may carry two
// escapes that compress rounds: SeqWait(n), an n-round wait run in one
// action, and SeqRepeat(n), which runs the actions after it, up to the
// next escape or the script's end, n times. A percept-free producer that
// walks one closed cycle many times (the label schedule's UXS round
// trips) submits the cycle once with its count; the simulator steps the
// first copy and replays the rest. RunSeq's reference fallback expands
// both escapes into MoveSeq and Wait calls, which fixes their meaning.
package agent

import "fmt"

// World is the interface through which an agent program senses and acts.
// Its methods may be called only from the program itself: in the
// simulator every action yields the program's coroutine, and a call
// from any other goroutine (one the program started, say) is undefined.
type World interface {
	// Degree returns the degree of the current node.
	Degree() int

	// EntryPort returns the port through which the agent last entered the
	// current node, or -1 if it has not moved since it appeared.
	EntryPort() int

	// Move leaves the current node through the given port, consuming one
	// round, and returns the port by which the agent enters the new node.
	// It panics with ErrBadPort if the port is out of range — that is a
	// bug in the agent program, not an environment condition.
	Move(port int) int

	// Wait stays at the current node for the given number of rounds.
	// Wait(0) is a no-op that consumes no rounds.
	Wait(rounds uint64)

	// MoveSeq performs a batched script of actions, one per round, and
	// returns the percepts after each action: entries[i] is the entry
	// port (unchanged by waits) and degrees[i] the degree of the node the
	// agent occupies once action i has run — the node just entered for a
	// move (the degree is observed on entry), the unchanged current node
	// for a ScriptWait — i.e. what EntryPort() and Degree() would return
	// at that round; len(entries) == len(degrees) == len(actions). Each
	// action is ScriptWait, an absolute outgoing port applied modulo the
	// current degree (the convention of Script), or an entry-relative move
	// encoded by Rel — exactly the semantics of RunScript, which
	// implementations without a native batched path may delegate to.
	// MoveSeq(nil) is a no-op that consumes no rounds and returns
	// (nil, nil).
	//
	// The returned slices are owned by the World and valid only until the
	// program's next action (Move, Wait or MoveSeq); callers that need them
	// longer must copy them. Implementations reuse one buffer each per
	// agent so that scripted hot loops stay allocation-free.
	MoveSeq(actions []int) (entries, degrees []int)

	// Clock returns the number of rounds elapsed since this agent
	// appeared at its initial node (the paper's synchronized local clock).
	Clock() uint64
}

// Program is a deterministic agent algorithm. It acts only through the
// World. A run ends (rendezvous, or the round budget exhausted) while the
// program is parked in some World call, and the simulator unwinds it from
// that call with a panic it recovers: none of the program's code after the
// call runs, only its defers. A program that returns leaves its agent
// waiting at its final node forever.
type Program func(w World)

// ErrBadPort is the panic value used when a program moves through an
// out-of-range port.
type ErrBadPort struct {
	Port   int
	Degree int
}

func (e ErrBadPort) Error() string {
	return fmt.Sprintf("agent: move through port %d at node of degree %d", e.Port, e.Degree)
}

// The action alphabet of scripted (oblivious) agents. Theorem 4.1's
// lower-bound argument observes that on port-homogeneous graphs every
// algorithm is equivalent to such a script, because the percept stream
// carries no information.
const (
	// ScriptWait encodes "stay put this round" in a script.
	ScriptWait = -1
)

// Rel encodes an entry-relative script move: the agent leaves through port
// (entry + offset) mod degree, where entry is the port by which it entered
// its current node (taken as 0 if it has never moved). This is exactly the
// application rule of universal exploration sequences (package uxs), so a
// whole UXS application batches into one MoveSeq call. offset must be
// non-negative.
func Rel(offset int) int { return -2 - offset }

// ActionPort resolves one script action against the agent's current
// percepts. It returns wait=true for ScriptWait; otherwise the outgoing
// port: absolute actions (>= 0) are applied modulo degree, Rel-encoded
// actions relative to entry (with entry < 0 treated as 0). Every int is a
// valid action; degree must be positive (guaranteed on connected graphs
// of size >= 2). This is the single source of truth for the action
// alphabet — the simulator's scripted step and its lone-agent executor
// (sim.Solo) both resolve through it. Almost every real action is already
// in range (or just past it, for small entry-relative offsets), so the
// reduction is a compare-and-subtract before it falls back to the
// division — this sits on the hottest instruction of every scripted
// round.
func ActionPort(action, entry, degree int) (port int, wait bool) {
	if action == ScriptWait {
		return 0, true
	}
	if action >= 0 {
		port = action
	} else {
		if entry < 0 {
			entry = 0
		}
		port = entry + (-2 - action)
	}
	if port >= degree {
		if port < degree<<1 {
			port -= degree
		} else {
			port %= degree
		}
	}
	return port, false
}

// RunScript executes a script one action at a time against w — the
// unbatched reference semantics of World.MoveSeq: each action runs
// through Move or Wait, and after it the degree percept is read back
// with Degree(). World implementations without a native batched path
// delegate to it, and the engine-equivalence tests use it (via
// Unbatched) to check that batched execution is behavior-identical.
func RunScript(w World, actions []int) (entries, degrees []int) {
	if len(actions) == 0 {
		return nil, nil
	}
	entries = make([]int, len(actions))
	degrees = make([]int, len(actions))
	entry := w.EntryPort()
	for i, a := range actions {
		if p, wait := ActionPort(a, entry, w.Degree()); wait {
			w.Wait(1)
		} else {
			entry = w.Move(p)
		}
		entries[i] = entry
		degrees[i] = w.Degree()
	}
	return entries, degrees
}

// seqWaitBase and seqRepeatBase anchor the escapes of RunSeq scripts:
// actions below seqWaitBase encode whole wait runs (SeqWait), actions
// from seqWaitBase up to seqRepeatBase repeat blocks (SeqRepeat). Both
// ranges sit far outside any real Rel offset — an entry-relative move
// with an offset anywhere near 2^29 would need a node of half a billion
// ports — so plain-script semantics are untouched; the escapes are only
// legal inside RunSeq. Bases and ranges fit int32 so the package still
// compiles on 32-bit platforms.
const (
	seqWaitBase   = -(1 << 30)
	seqRepeatBase = -(1 << 29)
	// MaxSeqWait is the longest wait run one SeqWait action can encode;
	// producers flush longer waits as ordinary deferred waits (which the
	// scheduler merges into the next script's lead anyway).
	MaxSeqWait = uint64(1)<<30 - 1
	// MaxSeqRepeat is the most copies one SeqRepeat action can encode;
	// producers split larger counts into consecutive blocks.
	MaxSeqRepeat = uint64(1) << 29
)

// SeqWait encodes an n-round wait run (1 <= n <= MaxSeqWait) as a single
// action of a RunSeq script. The scheduler consumes it in O(1) — the
// run-length-encoded analogue of a materialized ScriptWait run — which is
// what lets percept-free streams (label-schedule gaps, duration-padding
// pads) ride inside one script instead of fragmenting it. SeqWait
// actions are valid ONLY in RunSeq scripts; MoveSeq/RunScript decode
// every negative action as ScriptWait or Rel. A SeqWait also ends the
// SeqRepeat block before it: the actions after it run once.
func SeqWait(n uint64) int { return seqWaitBase - int(n) }

// SeqWaitRounds decodes a RunSeq wait-run action, reporting ok=false
// for ordinary actions.
func SeqWaitRounds(a int) (n uint64, ok bool) {
	if a >= seqWaitBase {
		return 0, false
	}
	return uint64(seqWaitBase - a), true
}

// SeqRepeat encodes a repeat block (1 <= n <= MaxSeqRepeat) in a RunSeq
// script: the actions after it, up to the next escape (SeqWait or
// SeqRepeat) or the script's end, run n times in a row. The action
// itself takes no round, so the block takes n times its length. Like
// SeqWait it is valid ONLY in RunSeq scripts; it is how a percept-free
// stream hands the scheduler a closed walk (a UXS round trip) together
// with its repeat count, which lets the scheduler step the walk once and
// replay the remaining copies instead of re-walking them.
func SeqRepeat(n uint64) int { return seqRepeatBase - int(n) }

// SeqRepeatCount decodes a RunSeq repeat action, reporting ok=false for
// every other action.
func SeqRepeatCount(a int) (n uint64, ok bool) {
	if a < seqWaitBase || a >= seqRepeatBase {
		return 0, false
	}
	return uint64(seqRepeatBase - a), true
}

// RunSeq performs a batched script for its side effects only: identical
// rounds, moves and timing to the equivalent MoveSeq/Wait sequence, but
// the caller declares it will not read the percept streams, and the
// script may contain escapes: SeqWait-encoded wait runs and
// SeqRepeat-encoded repeat blocks. Worlds that implement the optional
// interface{ RunSeq([]int) } (the simulator's native world does) skip
// producing per-action results, consume wait runs in O(1) and replay
// the copies of a closed block; for everything else this reference
// fallback expands the script into MoveSeq segments (a block's segment
// once per copy) and Wait calls — same rounds, same positions. RunSeq
// is an optimization channel, never a behavior change.
func RunSeq(w World, actions []int) {
	if q, ok := w.(interface{ RunSeq([]int) }); ok {
		q.RunSeq(actions)
		return
	}
	start, copies := 0, uint64(1) // the segment at start runs copies times
	for i, a := range actions {
		n, wait := SeqWaitRounds(a)
		reps, repeat := SeqRepeatCount(a)
		if !wait && !repeat {
			continue
		}
		for ; i > start && copies > 0; copies-- {
			w.MoveSeq(actions[start:i])
		}
		copies = 1
		if wait {
			w.Wait(n)
		} else {
			copies = reps
		}
		start = i + 1
	}
	for ; start < len(actions) && copies > 0; copies-- {
		w.MoveSeq(actions[start:])
	}
}

// Unbatched returns a program identical to prog except that every MoveSeq
// call is executed action by action through Move and Wait. It pins down
// the batched semantics: for any program and any STIC, the batched and
// unbatched runs must produce byte-identical results.
func Unbatched(prog Program) Program {
	return func(w World) {
		prog(unbatchedWorld{w})
	}
}

// unbatchedWorld forwards everything but degrades MoveSeq to its
// per-action reference executor.
type unbatchedWorld struct {
	World
}

func (u unbatchedWorld) MoveSeq(actions []int) ([]int, []int) { return RunScript(u.World, actions) }

// Script returns an oblivious program that performs the fixed action list,
// submitted as one batched MoveSeq script. Each entry uses the script
// action alphabet: ScriptWait, an outgoing port number applied modulo the
// current degree (so scripts written for regular graphs remain runnable
// anywhere), or a Rel-encoded entry-relative move — any other negative
// value decodes as some Rel offset, so validate hand-built scripts before
// passing them in. After the script is exhausted the agent waits forever.
func Script(actions []int) Program {
	return func(w World) {
		w.MoveSeq(actions)
	}
}

// ScriptWord parses a script from a word over the cardinal letters NESW
// (ports 0..3 as in package graph's Q̂h labeling) plus '.' for a wait, and
// returns the corresponding oblivious program.
func ScriptWord(word string) (Program, error) {
	actions, err := ParseWord(word)
	if err != nil {
		return nil, err
	}
	return Script(actions), nil
}

// ParseWord converts a NESW/'.' word into a script action list.
func ParseWord(word string) ([]int, error) {
	actions := make([]int, 0, len(word))
	for i := 0; i < len(word); i++ {
		switch c := word[i]; c {
		case '.':
			actions = append(actions, ScriptWait)
		case 'N', 'n':
			actions = append(actions, 0)
		case 'E', 'e':
			actions = append(actions, 1)
		case 'S', 's':
			actions = append(actions, 2)
		case 'W', 'w':
			actions = append(actions, 3)
		default:
			return nil, fmt.Errorf("agent: bad script letter %q at byte %d", c, i)
		}
	}
	return actions, nil
}

// MoveEveryRound is the paper's introductory example program for the
// two-node graph: "move at each round" (always through port 0). With any
// odd delay on K2 the two copies meet; with delay 0 they swap forever.
func MoveEveryRound(w World) {
	for {
		w.Move(0)
	}
}

// Sit is the program that waits forever — the non-leader half of the
// "waiting for Mommy" reduction from rendezvous to exploration.
func Sit(w World) {
	for {
		w.Wait(1 << 20)
	}
}
