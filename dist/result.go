package dist

import (
	"encoding/binary"
	"fmt"

	"repro/sim"
)

// CaseResult is one case's aggregate, exactly the in-process engine's
// result struct for the case's kind plus the run's scheduler wakeup
// count. The codec round-trips it losslessly — field by field, slice
// nil-ness included — because the byte-identical-aggregation invariant is
// stated on full Go-value equality between dist-executed and in-process
// sweeps, not on some lossy summary.
type CaseResult struct {
	Kind    CaseKind
	Two     sim.Result      // KindTwoAgent
	Multi   sim.MultiResult // KindMulti
	Wakeups uint64
}

// ShardResult is the per-shard aggregate a worker sends back in one
// result frame: the per-case results in case order, plus the view
// signature — the view.Tree.AppendEncode image of the executed graph's
// truncated view from node 0 — which the coordinator re-derives locally
// and compares byte-for-byte, so a corrupted or mis-decoded graph is
// caught by the view codec itself rather than by silently different
// aggregates.
type ShardResult struct {
	Cases   []CaseResult
	ViewSig []byte
}

func appendResult(dst []byte, r *sim.Result) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Outcome))
	dst = binary.AppendUvarint(dst, uint64(r.MeetingNode))
	dst = binary.AppendUvarint(dst, r.MeetingRound)
	dst = binary.AppendUvarint(dst, r.TimeFromLater)
	dst = binary.AppendUvarint(dst, r.Rounds)
	dst = binary.AppendUvarint(dst, r.MovesA)
	dst = binary.AppendUvarint(dst, r.MovesB)
	return dst
}

func decodeResult(d *rd, r *sim.Result) {
	r.Outcome = sim.Outcome(d.count(8, "outcome"))
	r.MeetingNode = d.count(maxNodes, "meeting node")
	r.MeetingRound = d.uvarint()
	r.TimeFromLater = d.uvarint()
	r.Rounds = d.uvarint()
	r.MovesA = d.uvarint()
	r.MovesB = d.uvarint()
}

func appendMultiResult(dst []byte, r *sim.MultiResult) []byte {
	dst = appendBool(dst, r.Gathered)
	dst = binary.AppendUvarint(dst, uint64(r.GatherNode))
	dst = binary.AppendUvarint(dst, r.GatherRound)
	dst = binary.AppendUvarint(dst, uint64(len(r.Meetings)))
	for i := range r.Meetings {
		m := &r.Meetings[i]
		dst = binary.AppendUvarint(dst, uint64(m.A))
		dst = binary.AppendUvarint(dst, uint64(m.B))
		dst = binary.AppendUvarint(dst, uint64(m.Node))
		dst = binary.AppendUvarint(dst, m.Round)
	}
	dst = binary.AppendUvarint(dst, r.Rounds)
	dst = binary.AppendUvarint(dst, uint64(len(r.Moves)))
	for _, mv := range r.Moves {
		dst = binary.AppendUvarint(dst, mv)
	}
	return dst
}

func decodeMultiResult(d *rd, r *sim.MultiResult) {
	r.Gathered = d.bool()
	r.GatherNode = d.count(maxNodes, "gather node")
	r.GatherRound = d.uvarint()
	// Counts of zero decode to nil slices, not empty ones: the invariant
	// is full equality with the in-process engine's structs, which leave
	// never-appended slices nil. Every count is additionally bounded by
	// the remaining input (each element costs >= 1 byte on the wire), so
	// a hostile frame cannot claim a huge slice it never backs.
	if n := d.count(maxMeetings, "meeting"); d.err == nil && n > 0 {
		if n > d.rest() {
			d.fail("meeting count %d exceeds remaining input (%d bytes)", n, d.rest())
			return
		}
		r.Meetings = make([]sim.Meeting, n)
		for i := range r.Meetings {
			m := &r.Meetings[i]
			m.A = d.count(maxAgents, "agent index")
			m.B = d.count(maxAgents, "agent index")
			m.Node = d.count(maxNodes, "meeting node")
			m.Round = d.uvarint()
		}
	}
	r.Rounds = d.uvarint()
	if n := d.count(maxAgents, "move counter"); d.err == nil && n > 0 {
		if n > d.rest() {
			d.fail("move counter count %d exceeds remaining input (%d bytes)", n, d.rest())
			return
		}
		r.Moves = make([]uint64, n)
		for i := range r.Moves {
			r.Moves[i] = d.uvarint()
		}
	}
}

func appendCaseResult(dst []byte, c *CaseResult) []byte {
	dst = append(dst, byte(c.Kind))
	dst = binary.AppendUvarint(dst, c.Wakeups)
	switch c.Kind {
	case KindTwoAgent:
		dst = appendResult(dst, &c.Two)
	default:
		dst = appendMultiResult(dst, &c.Multi)
	}
	return dst
}

func decodeCaseResult(d *rd, c *CaseResult) {
	kind := d.byteVal()
	if d.err == nil && kind > byte(KindMulti) {
		d.fail("bad case result kind %d", kind)
	}
	c.Kind = CaseKind(kind)
	c.Wakeups = d.uvarint()
	switch c.Kind {
	case KindTwoAgent:
		decodeResult(d, &c.Two)
	default:
		decodeMultiResult(d, &c.Multi)
	}
}

// AppendEncode appends the shard result's wire encoding to dst.
func (r *ShardResult) AppendEncode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Cases)))
	for i := range r.Cases {
		dst = appendCaseResult(dst, &r.Cases[i])
	}
	dst = appendBytes(dst, r.ViewSig)
	return dst
}

// Decode replaces r with the result serialized in data (one AppendEncode
// image, no trailing bytes), under the same hardening contract as
// ShardDesc.Decode.
func (r *ShardResult) Decode(data []byte) error {
	d := &rd{data: data}
	*r = ShardResult{}
	n := d.count(maxCases, "case result")
	if d.err != nil {
		return d.err
	}
	if n > d.rest() {
		return fmt.Errorf("dist: case result count %d exceeds remaining input (%d bytes)", n, d.rest())
	}
	if n > 0 {
		r.Cases = make([]CaseResult, n)
		for i := range r.Cases {
			decodeCaseResult(d, &r.Cases[i])
			if d.err != nil {
				return d.err
			}
		}
	}
	if sig := d.bytes(maxViewSig, "view signature"); len(sig) > 0 {
		r.ViewSig = append([]byte(nil), sig...)
	}
	if d.err == nil && d.rest() != 0 {
		return fmt.Errorf("dist: %d trailing bytes after shard result", d.rest())
	}
	return d.err
}
