package dist

import (
	"fmt"

	"repro/graph"
)

// Planner accumulates a flat case list and groups it into shard
// descriptors by a caller-chosen key, mirroring sim.Sweep's sharding
// exactly: cases with equal keys form one shard (first-occurrence
// order), run sequentially on one worker, and aggregate into disjoint
// regions of the flattened output. The natural key is the case's graph —
// the same choice the in-process experiment sweeps make — so converting
// a sweep to distributed dispatch is Add per case plus one Run.
type Planner struct {
	shards  []*ShardDesc
	byKey   map[any]int
	caseIdx [][]int // per shard, the input indices of its cases
	n       int
}

// Add appends one case, on graph g, to the shard identified by key
// (creating the shard on first sight of the key). The graph must be the
// same for every case of one shard — it travels once in the shard
// descriptor. Add returns the case's input index, which is also its
// position in Run's flattened result.
func (p *Planner) Add(key any, g *graph.Graph, c CaseDesc) int {
	if p.byKey == nil {
		p.byKey = map[any]int{}
	}
	si, ok := p.byKey[key]
	if !ok {
		si = len(p.shards)
		p.byKey[key] = si
		p.shards = append(p.shards, &ShardDesc{GraphText: graph.Encode(g)})
		p.caseIdx = append(p.caseIdx, nil)
	}
	p.shards[si].Cases = append(p.shards[si].Cases, c)
	p.caseIdx[si] = append(p.caseIdx[si], p.n)
	p.n++
	return p.n - 1
}

// SetSeedRange declares the seed range of the key's shard (see
// ShardDesc.SeedLo/SeedHi). The shard must already exist.
func (p *Planner) SetSeedRange(key any, lo, hi uint64) {
	si, ok := p.byKey[key]
	if !ok {
		panic(fmt.Sprintf("dist: SetSeedRange for unknown shard key %v", key))
	}
	p.shards[si].SeedLo, p.shards[si].SeedHi = lo, hi
}

// Deprecated: SetBatch stamps the Batch byte of the key's shard, which
// must already exist; workers ignore the byte.
func (p *Planner) SetBatch(key any) {
	si, ok := p.byKey[key]
	if !ok {
		panic(fmt.Sprintf("dist: SetBatch for unknown shard key %v", key))
	}
	p.shards[si].Batch = true
}

// Shards exposes the accumulated descriptors (shared, not copied) for
// callers that want to run or submit them directly.
func (p *Planner) Shards() []*ShardDesc { return p.shards }

// Run executes the accumulated shards on the backend and returns the
// per-case results flattened back to input order — the same
// position-stable contract as sim.Sweep, whatever worker ran each shard
// and in whatever order shards completed.
func (p *Planner) Run(be Backend) ([]CaseResult, error) {
	shardRes, err := be.Run(p.shards)
	if err != nil {
		return nil, err
	}
	out := make([]CaseResult, p.n)
	for si, res := range shardRes {
		for j, idx := range p.caseIdx[si] {
			out[idx] = res.Cases[j]
		}
	}
	return out, nil
}
