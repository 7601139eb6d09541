package dist

import (
	"fmt"

	"repro/graph"
	"repro/sim"
	"repro/view"
)

// viewSigNodeBudget bounds the view-signature tree: the signature depth
// is the largest depth (at most viewSigMaxDepth) whose worst-case node
// count stays under the budget, so dense graphs get shallow signatures
// instead of exponential ones. Both sides derive the depth from the same
// graph, so it never needs to travel.
const (
	viewSigNodeBudget = 2048
	viewSigMaxDepth   = 3
)

// viewSigDepth returns the signature truncation depth for g.
func viewSigDepth(g *graph.Graph) int {
	d := 0
	size := 1
	for d < viewSigMaxDepth {
		size *= max(1, g.MaxDegree())
		if size > viewSigNodeBudget {
			break
		}
		d++
	}
	return d
}

// appendViewSig appends g's view signature — the canonical binary
// encoding of the truncated view from node 0 — to dst. This is the
// protocol's cross-process view exchange: the worker derives it from the
// graph it actually decoded and executed on, the coordinator re-derives
// it from the graph it meant to send, and the byte comparison (plus a
// hardened round trip through view.Tree.Decode) turns "did the graph
// survive the wire" into an end-to-end check of the label structure
// itself rather than a checksum of unrelated bytes.
func appendViewSig(dst []byte, g *graph.Graph, t *view.Tree) []byte {
	t.Build(g, 0, viewSigDepth(g))
	return t.AppendEncode(dst)
}

// verifySigBytes is the byte-level half of signature verification: the
// reported signature must decode as a view tree (the hardening round
// trip) and match the locally derived bytes exactly. Byte equality of
// deterministic encodings implies tree equality.
func verifySigBytes(local, sig []byte) error {
	var got view.Tree
	if err := got.Decode(sig); err != nil {
		return fmt.Errorf("dist: worker view signature does not decode: %w", err)
	}
	if string(local) != string(sig) {
		return fmt.Errorf("dist: worker view signature disagrees with the dispatched graph (graph corrupted in transit?)")
	}
	return nil
}

// maxGraphCache bounds a connection's graph cache: descriptors come off
// the wire, so however many distinct graphs a stream claims, the cache
// holds a modest number and resets — caching is an accelerant, never a
// commitment.
const maxGraphCache = 64

// cachedGraph is one materialized graph plus its lazily derived view
// signature.
type cachedGraph struct {
	g   *graph.Graph
	sig []byte
}

func (e *cachedGraph) viewSig() []byte {
	if e.sig == nil {
		var t view.Tree
		e.sig = appendViewSig(nil, e.g, &t)
	}
	return e.sig
}

// graphCache memoizes graph materialization and view-signature
// derivation per connection. Production plans dispatch many shards of
// one graph — E7's parameter blocks, E12's seed blocks — and profiles
// showed the repeated graph decode and signature rebuild dominating the
// per-shard protocol cost on both ends of the wire. Graphs are
// immutable once built, so sharing the decoded *graph.Graph across
// shard executions is free.
type graphCache struct {
	m map[string]*cachedGraph // keyed by the descriptor's GraphText
}

func (gc *graphCache) lookup(sh *ShardDesc) (*cachedGraph, error) {
	if e, ok := gc.m[sh.GraphText]; ok {
		return e, nil
	}
	g, err := sh.Graph()
	if err != nil {
		return nil, err
	}
	if gc.m == nil || len(gc.m) >= maxGraphCache {
		gc.m = make(map[string]*cachedGraph, 8)
	}
	e := &cachedGraph{g: g}
	gc.m[sh.GraphText] = e
	return e, nil
}

// shardGraph materializes sh's graph and signature through the cache
// when one is supplied, freshly otherwise.
func shardGraph(gc *graphCache, sh *ShardDesc) (*cachedGraph, error) {
	if gc != nil {
		return gc.lookup(sh)
	}
	g, err := sh.Graph()
	if err != nil {
		return nil, err
	}
	return &cachedGraph{g: g}, nil
}

// progressFn is the between-cases progress hook of the execution paths:
// called with the number of cases completed so far, it is what lets a
// worker emit heartbeat frames while a long shard executes (liveness is
// measured on progress, never on wall-clock silence). Progress never
// influences results — a nil hook is always valid.
type progressFn func(done int)

// ExecShard runs every case of the shard, in order, on the given pooled
// session and returns the per-case aggregates plus the executed graph's
// view signature. Execution is deterministic: the same descriptor on any
// process yields the same ShardResult, which is the whole basis of the
// byte-identical-aggregation invariant. Shards with the Batch flag set
// run their k-agent cases as ExecShardBatch does, on a throwaway arena
// (workers that execute many shards pass their pooled arena to
// ExecShardBatch directly).
func ExecShard(sess *sim.Session, sh *ShardDesc) (*ShardResult, error) {
	var b *sim.Batch
	if sh.Batch {
		b = sim.NewBatch()
	}
	return execShard(sess, b, sh, nil, nil)
}

// ExecShardBatch executes the shard with its k-agent cases batched:
// each maximal run of consecutive k-agent cases becomes one
// sim.RunBatch call on b, with per-case wakeup counts taken from the
// batch's per-lane attribution, while two-agent cases run exactly as
// ExecShard runs them. The ShardResult is identical to ExecShard's —
// RunBatch is pinned to full per-case equality — so batching is purely
// an execution strategy; b is the caller's reusable arena (workers keep
// one per connection).
func ExecShardBatch(sess *sim.Session, b *sim.Batch, sh *ShardDesc) (*ShardResult, error) {
	return execShard(sess, b, sh, nil, nil)
}

// execShard is both execution paths: with b nil every case runs on its
// per-case engine, otherwise runs of k-agent cases run as lanes of b.
func execShard(sess *sim.Session, b *sim.Batch, sh *ShardDesc, gc *graphCache, progress progressFn) (*ShardResult, error) {
	e, err := shardGraph(gc, sh)
	if err != nil {
		return nil, err
	}
	g := e.g
	res := &ShardResult{Cases: make([]CaseResult, len(sh.Cases))}
	for i := 0; i < len(sh.Cases); {
		j := i + 1
		switch {
		case sh.Cases[i].Kind == KindTwoAgent:
			err = execTwoAgent(sess, g, sh, i, &res.Cases[i])
		case b == nil:
			err = execMulti(sess, g, sh, i, &res.Cases[i])
		default:
			for j < len(sh.Cases) && sh.Cases[j].Kind != KindTwoAgent {
				j++
			}
			err = execMultiBatch(sess, b, g, sh, i, j, res.Cases[i:j])
		}
		if err != nil {
			return nil, err
		}
		i = j
		if progress != nil {
			progress(i)
		}
	}
	res.ViewSig = e.viewSig()
	return res, nil
}

// execTwoAgent runs two-agent case i of sh on the per-case engine — the
// one two-agent path of every execution strategy.
func execTwoAgent(sess *sim.Session, g *graph.Graph, sh *ShardDesc, i int, out *CaseResult) error {
	c := &sh.Cases[i]
	if err := checkStart(g, c.U); err != nil {
		return fmt.Errorf("dist: case %d: %w", i, err)
	}
	if err := checkStart(g, c.V); err != nil {
		return fmt.Errorf("dist: case %d: %w", i, err)
	}
	progA, err := buildProg(&c.ProgA, sh.SeedLo, sh.SeedHi)
	if err != nil {
		return fmt.Errorf("dist: case %d: %w", i, err)
	}
	progB, err := buildProg(&c.ProgB, sh.SeedLo, sh.SeedHi)
	if err != nil {
		return fmt.Errorf("dist: case %d: %w", i, err)
	}
	two := sess.RunPrograms(g, progA, progB, c.U, c.V, c.Delay, sim.Config{Budget: c.Budget})
	*out = CaseResult{Kind: c.Kind, Two: two, Wakeups: sess.Wakeups()}
	return nil
}

// multiCase resolves k-agent case i of sh into its engine parameters.
func multiCase(g *graph.Graph, sh *ShardDesc, i int) (sim.MultiCase, error) {
	c := &sh.Cases[i]
	agents := make([]sim.MultiAgent, len(c.Agents))
	for j := range c.Agents {
		a := &c.Agents[j]
		if err := checkStart(g, a.Start); err != nil {
			return sim.MultiCase{}, fmt.Errorf("dist: case %d agent %d: %w", i, j, err)
		}
		prog, err := buildProg(&a.Prog, sh.SeedLo, sh.SeedHi)
		if err != nil {
			return sim.MultiCase{}, fmt.Errorf("dist: case %d agent %d: %w", i, j, err)
		}
		agents[j] = sim.MultiAgent{Program: prog, Start: a.Start, Appear: a.Appear}
	}
	return sim.MultiCase{Agents: agents, Cfg: sim.MultiConfig{
		Budget:             c.Budget,
		StopOnGather:       c.StopOnGather,
		StopOnFirstMeeting: c.StopOnFirstMeeting,
	}}, nil
}

// execMulti runs k-agent case i of sh on the per-case engine.
func execMulti(sess *sim.Session, g *graph.Graph, sh *ShardDesc, i int, out *CaseResult) error {
	mc, err := multiCase(g, sh, i)
	if err != nil {
		return err
	}
	multi := sess.RunMany(g, mc.Agents, mc.Cfg)
	*out = CaseResult{Kind: sh.Cases[i].Kind, Multi: multi, Wakeups: sess.Wakeups()}
	return nil
}

// execMultiBatch runs k-agent cases [i, j) of sh as the lanes of one
// RunBatch call on b, writing their results to out.
func execMultiBatch(sess *sim.Session, b *sim.Batch, g *graph.Graph, sh *ShardDesc, i, j int, out []CaseResult) error {
	mcs := make([]sim.MultiCase, j-i)
	for c := i; c < j; c++ {
		mc, err := multiCase(g, sh, c)
		if err != nil {
			return err
		}
		mcs[c-i] = mc
	}
	multi := sess.RunBatch(g, mcs, b)
	wk := b.Wakeups()
	for c := range out {
		out[c] = CaseResult{Kind: sh.Cases[i+c].Kind, Multi: multi[c], Wakeups: wk[c]}
	}
	return nil
}

func checkStart(g *graph.Graph, v int) error {
	if v < 0 || v >= g.N() {
		return fmt.Errorf("start node %d outside graph of %d nodes", v, g.N())
	}
	return nil
}

// execShardOn executes a shard on the caller's pooled session, batch
// arena (used only when the shard's Batch flag is set) and graph cache —
// the per-connection execution path of Serve.
func execShardOn(sess *sim.Session, b *sim.Batch, sh *ShardDesc, gc *graphCache, progress progressFn) (*ShardResult, error) {
	if !sh.Batch {
		b = nil
	}
	return execShard(sess, b, sh, gc, progress)
}
