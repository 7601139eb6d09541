package dist

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"repro/graph"
	"repro/sim"
)

// Options must not arm the watchdog on an in-process fleet: rvd and rvx
// pass WithTuning for -dist-max-attempts alone, and any WithTuning
// replaces the whole Tuning.
func TestInProcessKeepsWatchdogOff(t *testing.T) {
	be := NewInProcess(1, WithTuning(Tuning{MaxAttempts: 5})).(*connBackend)
	defer be.Close()
	if be.tun.MaxAttempts != 5 {
		t.Fatalf("MaxAttempts %d, want the option's 5", be.tun.MaxAttempts)
	}
	if !be.tun.watchdogOff() {
		t.Fatalf("in-process watchdog armed with BaseDeadline %v", be.tun.BaseDeadline)
	}
}

// startReplyWorker is a fake worker that says a current hello, executes
// the first shard it is dealt, and answers it with the frame reply
// builds from the shard id and the true result. The returned channel
// closes when the worker has exited.
func startReplyWorker(t *testing.T, wp net.Conn, reply func(id uint64, res *ShardResult) []byte) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer wp.Close()
		br, bw := bufio.NewReader(wp), bufio.NewWriter(wp)
		if err := writeFrame(bw, binary.AppendUvarint([]byte{frameHello, ProtoVersion}, 1)); err != nil {
			t.Errorf("fake worker hello: %v", err)
			return
		}
		payload, err := readFrameSum(br, nil)
		if err != nil {
			t.Errorf("fake worker reading its shard: %v", err)
			return
		}
		d := &rd{data: payload[1:]}
		id := d.uvarint()
		var sh ShardDesc
		if err := sh.Decode(d.data); err != nil {
			t.Errorf("fake worker decoding its shard: %v", err)
			return
		}
		sess := sim.NewSession()
		defer sess.Close()
		res, err := ExecShard(sess, &sh)
		if err != nil {
			t.Errorf("fake worker executing its shard: %v", err)
			return
		}
		if err := writeFrameSum(bw, reply(id, res)); err != nil {
			return // the coordinator may already have cut the link
		}
		_, _ = io.Copy(io.Discard, br)
	}()
	return done
}

// A worker answering in a retired result frame — a well-formed v4 chunk
// under tag 7, or a v1 whole-shard result under tag 3 — must kill its
// connection, never complete the shard.
func TestCoordinatorRejectsRetiredFrames(t *testing.T) {
	replies := []struct {
		name  string
		frame func(id uint64, res *ShardResult) []byte
	}{
		{"v4 terminal chunk (tag 7)", func(id uint64, res *ShardResult) []byte {
			p := binary.AppendUvarint([]byte{7}, id)
			p = binary.AppendUvarint(p, 0) // first case index
			p = binary.AppendUvarint(p, uint64(len(res.Cases)))
			for i := range res.Cases {
				p = appendCaseResult(p, &res.Cases[i])
			}
			p = appendBool(p, true) // terminal
			return appendBytes(p, res.ViewSig)
		}},
		{"v1 whole-shard result (tag 3)", func(id uint64, res *ShardResult) []byte {
			return res.AppendEncode(binary.AppendUvarint([]byte{3}, id))
		}},
	}
	for _, tc := range replies {
		t.Run(tc.name, func(t *testing.T) {
			p := &Planner{}
			p.Add(0, graph.Cycle(4), CaseDesc{Kind: KindTwoAgent, ProgA: ProgDesc{Name: "sit"},
				ProgB: ProgDesc{Name: "moveevery"}, V: 2, Budget: 64})
			cp, wp := net.Pipe()
			done := startReplyWorker(t, wp, tc.frame)
			be := NewFromStreams([]io.ReadWriteCloser{cp}, WithTuning(Tuning{BaseDeadline: NoDeadline}))
			_, err := p.Run(be)
			be.Close()
			<-done
			if err == nil || !strings.Contains(err.Error(), "unexpected frame type") {
				t.Fatalf("Run returned %v, want the connection dead on an unexpected frame type", err)
			}
		})
	}
}
