package dist_test

// Encode/decode round-trip property tests for the wire structures: a
// randomized descriptor or result must survive encode → decode with full
// Go-value equality (slice nil-ness included — the aggregation invariant
// is stated on exactly that), and the canonical encoding must be a fixed
// point. Corrupt inputs are the fuzz targets' job (fuzz_test.go); here we
// pin the happy path the protocol lives on.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/dist"
	"repro/sim"
)

func randProgDesc(r *rand.Rand) dist.ProgDesc {
	switch r.Intn(5) {
	case 0:
		return dist.ProgDesc{Name: "sit"}
	case 1:
		return dist.ProgDesc{Name: "moveevery"}
	case 2:
		return dist.ProgDesc{Name: "lazyrandom", Args: []uint64{uint64(r.Intn(1000))}}
	case 3:
		actions := make([]int, 1+r.Intn(12))
		for i := range actions {
			actions[i] = r.Intn(8) - 2
		}
		return dist.ProgDesc{Name: "script", Args: dist.ScriptProgArgs(actions)}
	default:
		return dist.ProgDesc{Name: "universal"}
	}
}

func randCaseDesc(r *rand.Rand) dist.CaseDesc {
	if r.Intn(2) == 0 {
		return dist.CaseDesc{
			Kind:   dist.KindTwoAgent,
			ProgA:  randProgDesc(r),
			ProgB:  randProgDesc(r),
			U:      r.Intn(8),
			V:      r.Intn(8),
			Delay:  uint64(r.Intn(50)),
			Budget: uint64(r.Intn(5000)),
		}
	}
	agents := make([]dist.AgentDesc, 1+r.Intn(4))
	for i := range agents {
		agents[i] = dist.AgentDesc{Prog: randProgDesc(r), Start: r.Intn(8), Appear: uint64(r.Intn(30))}
	}
	return dist.CaseDesc{
		Kind:               dist.KindMulti,
		Agents:             agents,
		StopOnGather:       r.Intn(2) == 0,
		StopOnFirstMeeting: r.Intn(3) == 0,
		Budget:             uint64(r.Intn(5000)),
	}
}

func randShardDesc(r *rand.Rand) *dist.ShardDesc {
	sh := &dist.ShardDesc{GraphText: "# t\n2\n1/0\n0/0\n", Batch: r.Intn(2) == 0}
	if r.Intn(2) == 0 {
		sh.SeedLo = uint64(r.Intn(100))
		sh.SeedHi = sh.SeedLo + uint64(r.Intn(1000))
	}
	ncases := r.Intn(6)
	for i := 0; i < ncases; i++ {
		sh.Cases = append(sh.Cases, randCaseDesc(r))
	}
	return sh
}

func TestShardDescRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		src := randShardDesc(r)
		enc := src.Encode()
		var dec dist.ShardDesc
		if err := dec.Decode(enc); err != nil {
			t.Fatalf("case %d: valid encoding rejected: %v\n%+v", i, err, src)
		}
		if !reflect.DeepEqual(*src, dec) {
			t.Fatalf("case %d: round trip changed the descriptor\n src: %+v\n dec: %+v", i, src, dec)
		}
		if enc2 := dec.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("case %d: encoding is not a fixed point", i)
		}
		// Trailing garbage must be rejected, exactly like view.Tree.
		if err := dec.Decode(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatalf("case %d: trailing byte accepted", i)
		}
	}
}

func randMultiResult(r *rand.Rand) sim.MultiResult {
	res := sim.MultiResult{
		Gathered:    r.Intn(2) == 0,
		GatherNode:  r.Intn(16),
		GatherRound: uint64(r.Intn(10000)),
		Rounds:      uint64(r.Intn(100000)),
	}
	if n := r.Intn(5); n > 0 {
		res.Meetings = make([]sim.Meeting, n)
		for i := range res.Meetings {
			res.Meetings[i] = sim.Meeting{A: r.Intn(4), B: 4 + r.Intn(4), Node: r.Intn(16), Round: uint64(r.Intn(10000))}
		}
	}
	if n := r.Intn(6); n > 0 {
		res.Moves = make([]uint64, n)
		for i := range res.Moves {
			res.Moves[i] = r.Uint64() >> 32
		}
	}
	return res
}

// randShardResult builds a result of up to five cases, each two-agent or
// k-agent, with a view signature half the time.
func randShardResult(r *rand.Rand) *dist.ShardResult {
	res := &dist.ShardResult{}
	ncases := r.Intn(6)
	for j := 0; j < ncases; j++ {
		cr := dist.CaseResult{Wakeups: uint64(r.Intn(100000))}
		if r.Intn(2) == 0 {
			cr.Kind = dist.KindTwoAgent
			cr.Two = sim.Result{
				Outcome:       sim.Outcome(r.Intn(3)),
				MeetingNode:   r.Intn(16),
				MeetingRound:  uint64(r.Intn(100000)),
				TimeFromLater: uint64(r.Intn(100000)),
				Rounds:        uint64(r.Intn(100000)),
				MovesA:        uint64(r.Intn(100000)),
				MovesB:        uint64(r.Intn(100000)),
			}
		} else {
			cr.Kind = dist.KindMulti
			cr.Multi = randMultiResult(r)
		}
		res.Cases = append(res.Cases, cr)
	}
	if r.Intn(2) == 0 {
		res.ViewSig = make([]byte, 1+r.Intn(40))
		r.Read(res.ViewSig)
	}
	return res
}

func TestShardResultRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		src := randShardResult(r)
		enc := src.AppendEncode(nil)
		var dec dist.ShardResult
		if err := dec.Decode(enc); err != nil {
			t.Fatalf("case %d: valid encoding rejected: %v", i, err)
		}
		if !reflect.DeepEqual(*src, dec) {
			t.Fatalf("case %d: round trip changed the result\n src: %+v\n dec: %+v", i, src, dec)
		}
		if enc2 := dec.AppendEncode(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("case %d: encoding is not a fixed point", i)
		}
	}
}
