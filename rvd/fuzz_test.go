package rvd

// The store's entry decoder meets hostile bytes before anything else in
// the daemon does: it re-verifies whatever the filesystem hands back,
// including whatever a crash left on disk. Its fuzz target pins the same
// contract as the dist wire fuzzers: arbitrary input yields an error —
// never a panic, never an allocation disproportionate to the input — and
// accepted data re-encodes to a canonical fixed point.

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzCacheEntryDecode: arbitrary bytes are some store entry file.
// decodeEntry must error or yield a verified (key, value) whose
// re-encoding is byte-identical to the input — entries have exactly one
// spelling, so a verified read is also a proof of on-disk canonicality.
func FuzzCacheEntryDecode(f *testing.F) {
	k := CacheKey("fuzz", []byte("shard"))
	f.Add(appendEntry(nil, k, []byte("value bytes")))
	f.Add(appendEntry(nil, k, nil))
	f.Add([]byte{})
	f.Add([]byte("rvc1"))
	f.Add(append([]byte("rvc0"), make([]byte, 64)...)) // wrong magic
	f.Add(appendEntry(nil, k, bytes.Repeat([]byte{7}, 300))[:40])
	f.Add(append(appendEntry(nil, k, []byte("v")), 0xAA)) // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		ek, value, err := decodeEntry(data)
		if err != nil {
			return
		}
		if enc := appendEntry(nil, ek, value); !bytes.Equal(enc, data) {
			t.Fatalf("accepted entry is not canonical\nin:  %x\nout: %x", data, enc)
		}
	})
}

// jobStreamBytes frames a job's response as handleJob writes it: one
// frame per shard in the given order, then the terminal frame.
func jobStreamBytes(t testing.TB, shards []Event, id uint64, state JobState, errMsg string) []byte {
	payloads := make([][]byte, 0, len(shards)+1)
	for _, ev := range shards {
		payloads = append(payloads, appendShardFrame(nil, ev))
	}
	return frames(t, append(payloads, appendEndFrame(nil, id, state, errMsg))...)
}

// streamReject is a 3-shard job stream readJobStream must refuse, with
// the words of the error it was written to hit.
type streamReject struct {
	name, want string
	data       []byte
}

func jobStreamRejects(tb testing.TB) []streamReject {
	done := jobStreamBytes(tb, []Event{{Shard: 2}, {Shard: 0}, {Shard: 1}}, 9, JobDone, "")
	return []streamReject{
		{"empty body", "ended before the job did", nil},
		{"cut short", "unexpected EOF", done[:len(done)-1]},
		{"shard frame without its cache byte", "truncated frame of kind 1", frames(tb, []byte{streamShard, 0})},
		{"a byte after the end", "bytes after its end frame", append(bytes.Clone(done), 0x00)},
		{"non-minimal frame length", "not minimally encoded", append([]byte{done[0] | 0x80, 0x00}, done[1:]...)},
		{"flipped checksum byte", "checksum mismatch", append(bytes.Clone(done[:len(done)-1]), done[len(done)-1]^1)},
		{"a shard twice", "names no new shard", jobStreamBytes(tb, []Event{{Shard: 1}, {Shard: 1}}, 9, JobFailed, "")},
		{"no such shard", "names no new shard", jobStreamBytes(tb, []Event{{Shard: 3}}, 9, JobFailed, "")},
		{"done two shards short", "done after 1 of 3 shards", jobStreamBytes(tb, []Event{{Shard: 0}}, 9, JobDone, "")},
		{"not a terminal state", "ended in state 1", jobStreamBytes(tb, nil, 9, JobRunning, "")},
		{"unknown kind", "unknown kind 3", frames(tb, []byte{3, 0, 0})},
	}
}

func TestJobStreamRejects(t *testing.T) {
	for _, tc := range jobStreamRejects(t) {
		if _, err := readJobStream(bytes.NewReader(tc.data), 3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: readJobStream(%x) = %v, want an error saying %q", tc.name, tc.data, err, tc.want)
		}
	}
}

// FuzzJobStream: arbitrary bytes are the response body of a 3-shard job.
// The client's decoder, readJobStream, must error or accept a stream
// that re-encodes, frame by frame, to exactly its input: a checksummed
// frame per shard it names once, then one terminal frame, and nothing
// after it. Its allocations are dist's frame reader's, which grow with
// the bytes that arrive, plus the one-flag-per-shard seen set.
func FuzzJobStream(f *testing.F) {
	f.Add(jobStreamBytes(f, []Event{
		{Shard: 2, Cache: true, result: []byte("result two")},
		{Shard: 0, result: []byte{0x01, 0x00}},
		{Shard: 1, Cache: true},
	}, 1<<40, JobDone, ""))
	f.Add(jobStreamBytes(f, []Event{{Shard: 1, result: []byte("r")}}, 7, JobFailed, "fleet down"))
	f.Add(jobStreamBytes(f, nil, 8, JobSuspended, ""))
	for _, tc := range jobStreamRejects(f) {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		js, err := readJobStream(bytes.NewReader(data), 3)
		if err != nil {
			return
		}
		if enc := jobStreamBytes(t, js.shards, js.id, js.state, js.errMsg); !bytes.Equal(enc, data) {
			t.Fatalf("accepted stream does not re-encode to its input\nin:  %x\nout: %x", data, enc)
		}
	})
}
