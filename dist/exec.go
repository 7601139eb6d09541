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

// ExecShard runs every case of the shard, in order, on the given pooled
// session and returns the per-case aggregates plus the executed graph's
// view signature. Execution is deterministic: the same descriptor on any
// process yields the same ShardResult, which is the whole basis of the
// byte-identical-aggregation invariant.
func ExecShard(sess *sim.Session, sh *ShardDesc) (*ShardResult, error) {
	return execShard(sess, sh, nil)
}

// Deprecated: ExecShardBatch is ExecShard under its old name; b is
// ignored.
func ExecShardBatch(sess *sim.Session, b *sim.Batch, sh *ShardDesc) (*ShardResult, error) {
	return ExecShard(sess, sh)
}

// execShard runs sh's cases in order, materializing its graph through gc
// when one is supplied (Serve passes its per-connection cache).
func execShard(sess *sim.Session, sh *ShardDesc, gc *graphCache) (*ShardResult, error) {
	e, err := shardGraph(gc, sh)
	if err != nil {
		return nil, err
	}
	res := &ShardResult{Cases: make([]CaseResult, len(sh.Cases))}
	for i := range sh.Cases {
		if sh.Cases[i].Kind == KindTwoAgent {
			err = execTwoAgent(sess, e.g, sh, i, &res.Cases[i])
		} else {
			err = execMulti(sess, e.g, sh, i, &res.Cases[i])
		}
		if err != nil {
			return nil, err
		}
	}
	res.ViewSig = e.viewSig()
	return res, nil
}

// execTwoAgent runs two-agent case i of sh on the pair engine.
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

// execMulti runs k-agent case i of sh on the k-agent engine.
func execMulti(sess *sim.Session, g *graph.Graph, sh *ShardDesc, i int, out *CaseResult) error {
	c := &sh.Cases[i]
	agents := make([]sim.MultiAgent, len(c.Agents))
	for j := range c.Agents {
		a := &c.Agents[j]
		if err := checkStart(g, a.Start); err != nil {
			return fmt.Errorf("dist: case %d agent %d: %w", i, j, err)
		}
		prog, err := buildProg(&a.Prog, sh.SeedLo, sh.SeedHi)
		if err != nil {
			return fmt.Errorf("dist: case %d agent %d: %w", i, j, err)
		}
		agents[j] = sim.MultiAgent{Program: prog, Start: a.Start, Appear: a.Appear}
	}
	multi := sess.RunMany(g, agents, sim.MultiConfig{
		Budget:             c.Budget,
		StopOnGather:       c.StopOnGather,
		StopOnFirstMeeting: c.StopOnFirstMeeting,
	})
	*out = CaseResult{Kind: c.Kind, Multi: multi, Wakeups: sess.Wakeups()}
	return nil
}

func checkStart(g *graph.Graph, v int) error {
	if v < 0 || v >= g.N() {
		return fmt.Errorf("start node %d outside graph of %d nodes", v, g.N())
	}
	return nil
}
