package dist

import (
	"encoding/binary"
	"fmt"

	"repro/graph"
)

// A ShardDesc is the unit of dispatch: one graph plus the ordered list of
// simulator cases to run on it, mirroring exactly the (graph, parameter
// block) shards of the in-process sim.Sweep. The descriptor is fully
// serializable — programs are named registry entries, the graph travels
// as an inline graph.Encode image — and execution is deterministic,
// which is what makes the byte-identical-aggregation invariant (see the
// package comment) possible at all.
type ShardDesc struct {
	// GraphText is the shard's graph as a graph.Encode image.
	GraphText string

	// SeedLo/SeedHi declare the PRNG seed range this shard covers,
	// half-open [SeedLo, SeedHi). When the range is non-empty the worker
	// validates that every seeded program argument falls inside it — a
	// cheap end-to-end guard against descriptor corruption and shard
	// mix-ups. A zero range (SeedHi == SeedLo) skips the check; shards
	// of deterministic programs carry no seeds at all.
	SeedLo, SeedHi uint64

	// Deprecated: Batch is a byte of the encoding that workers decode
	// and ignore; it goes at the next CodecVersion bump.
	Batch bool

	// Cases run sequentially, in order, on one pooled session.
	Cases []CaseDesc
}

// CaseKind selects the engine a case runs on.
type CaseKind uint8

const (
	// KindTwoAgent runs sim.Session.RunPrograms: programs ProgA/ProgB
	// from starts U/V with the later agent delayed Delay rounds.
	KindTwoAgent CaseKind = iota
	// KindMulti runs sim.Session.RunMany over Agents.
	KindMulti
)

// ProgDesc names a registered agent program plus its build arguments
// (see RegisterProgram; seeds, size hypotheses and labels all ride in
// Args as uint64, script actions zigzag-encoded).
type ProgDesc struct {
	Name string
	Args []uint64
}

// AgentDesc is one agent of a KindMulti case.
type AgentDesc struct {
	Prog   ProgDesc
	Start  int
	Appear uint64
}

// CaseDesc is one deterministic simulator run.
type CaseDesc struct {
	Kind CaseKind

	// Two-agent fields (KindTwoAgent).
	ProgA, ProgB ProgDesc
	U, V         int
	Delay        uint64

	// Multi-agent fields (KindMulti).
	Agents             []AgentDesc
	StopOnGather       bool
	StopOnFirstMeeting bool

	// Budget is the round budget (0 = sim.DefaultBudget), both kinds.
	Budget uint64
}

func appendProg(dst []byte, p *ProgDesc) []byte {
	dst = appendString(dst, p.Name)
	dst = binary.AppendUvarint(dst, uint64(len(p.Args)))
	for _, a := range p.Args {
		dst = binary.AppendUvarint(dst, a)
	}
	return dst
}

func decodeProg(d *rd, p *ProgDesc) {
	p.Name = d.strInterned(maxNameLen, "program name")
	n := d.count(maxArgs, "program arg")
	if d.err != nil {
		return
	}
	if n > 0 {
		if n > d.rest() {
			d.fail("program arg count %d exceeds remaining input (%d bytes)", n, d.rest())
			return
		}
		p.Args = make([]uint64, n)
		for i := range p.Args {
			p.Args[i] = d.uvarint()
		}
	} else {
		p.Args = nil
	}
}

// AppendEncode appends the case's wire encoding to dst.
func (c *CaseDesc) AppendEncode(dst []byte) []byte {
	dst = append(dst, byte(c.Kind))
	dst = binary.AppendUvarint(dst, c.Budget)
	switch c.Kind {
	case KindTwoAgent:
		dst = appendProg(dst, &c.ProgA)
		dst = appendProg(dst, &c.ProgB)
		dst = binary.AppendUvarint(dst, uint64(c.U))
		dst = binary.AppendUvarint(dst, uint64(c.V))
		dst = binary.AppendUvarint(dst, c.Delay)
	default: // KindMulti
		dst = binary.AppendUvarint(dst, uint64(len(c.Agents)))
		for i := range c.Agents {
			a := &c.Agents[i]
			dst = appendProg(dst, &a.Prog)
			dst = binary.AppendUvarint(dst, uint64(a.Start))
			dst = binary.AppendUvarint(dst, a.Appear)
		}
		dst = appendBool(dst, c.StopOnGather)
		dst = appendBool(dst, c.StopOnFirstMeeting)
	}
	return dst
}

func decodeCase(d *rd, c *CaseDesc) {
	kind := d.byteVal()
	if d.err == nil && kind > byte(KindMulti) {
		d.fail("bad case kind %d", kind)
		return
	}
	c.Kind = CaseKind(kind)
	c.Budget = d.uvarint()
	switch c.Kind {
	case KindTwoAgent:
		decodeProg(d, &c.ProgA)
		decodeProg(d, &c.ProgB)
		c.U = d.count(maxNodes, "start node")
		c.V = d.count(maxNodes, "start node")
		c.Delay = d.uvarint()
	default:
		n := d.count(maxAgents, "agent")
		if d.err != nil {
			return
		}
		if n > 0 {
			// Each agent costs >= 3 bytes on the wire; bounding by the
			// remaining input keeps a hostile count from claiming a huge
			// slice it never backs.
			if n > d.rest() {
				d.fail("agent count %d exceeds remaining input (%d bytes)", n, d.rest())
				return
			}
			c.Agents = make([]AgentDesc, n)
			for i := range c.Agents {
				a := &c.Agents[i]
				decodeProg(d, &a.Prog)
				a.Start = d.count(maxNodes, "start node")
				a.Appear = d.uvarint()
			}
		}
		c.StopOnGather = d.bool()
		c.StopOnFirstMeeting = d.bool()
	}
}

// maxNodes bounds node indices accepted off the wire; the executor
// re-validates against the actual decoded graph.
const maxNodes = 1 << 28

// AppendEncode appends the shard descriptor's wire encoding to dst.
func (s *ShardDesc) AppendEncode(dst []byte) []byte {
	dst = appendString(dst, s.GraphText)
	dst = binary.AppendUvarint(dst, s.SeedLo)
	dst = binary.AppendUvarint(dst, s.SeedHi)
	dst = appendBool(dst, s.Batch)
	dst = binary.AppendUvarint(dst, uint64(len(s.Cases)))
	for i := range s.Cases {
		dst = s.Cases[i].AppendEncode(dst)
	}
	return dst
}

// Encode is the convenience one-shot form of AppendEncode.
func (s *ShardDesc) Encode() []byte { return s.AppendEncode(nil) }

// Decode replaces s with the descriptor serialized in data, which must be
// exactly one AppendEncode image. Arbitrary input produces an error or a
// structurally valid descriptor — never a panic, and never an allocation
// disproportionate to len(data) (pinned by FuzzShardDecode). Semantic
// validation against the actual graph and program registry happens at
// execution time.
func (s *ShardDesc) Decode(data []byte) error {
	d := &rd{data: data}
	*s = ShardDesc{}
	s.GraphText = d.str(maxGraphLen, "graph text")
	s.SeedLo = d.uvarint()
	s.SeedHi = d.uvarint()
	s.Batch = d.bool()
	ncases := d.count(maxCases, "case")
	if d.err != nil {
		return d.err
	}
	if ncases > 0 {
		// Each case costs at least two bytes on the wire, so a claimed
		// count can demand at most O(len(data)) slots up front.
		if ncases > d.rest() {
			return fmt.Errorf("dist: case count %d exceeds remaining input (%d bytes)", ncases, d.rest())
		}
		s.Cases = make([]CaseDesc, ncases)
		for i := range s.Cases {
			decodeCase(d, &s.Cases[i])
			if d.err != nil {
				return d.err
			}
		}
	}
	if d.err == nil && d.rest() != 0 {
		return fmt.Errorf("dist: %d trailing bytes after shard descriptor", d.rest())
	}
	return d.err
}

// Graph materializes the shard's graph from its graph.Encode image.
func (s *ShardDesc) Graph() (*graph.Graph, error) {
	if s.GraphText == "" {
		return nil, fmt.Errorf("dist: shard descriptor carries no graph text")
	}
	return graph.Decode(s.GraphText)
}
