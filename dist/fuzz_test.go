package dist_test

// FuzzShardDecode guards the shard-descriptor wire decoder the same way
// FuzzTreeDecode guards the view codec: arbitrary input — corrupt
// headers, truncated varints, hostile count claims — must produce an
// error or a valid descriptor, never a panic and never an allocation
// disproportionate to the input. Accepted inputs must re-encode to a
// canonical fixed point. CI runs a short -fuzz smoke on top of the seed
// corpus.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/dist"
)

// shardRejects is the hand-built corruption in FuzzShardDecode's seed
// corpus, each input with the exact rejection it was written to hit. The
// descriptor opens with four fields that encode zero as one 0x00 byte
// (graph text length, SeedLo, SeedHi, Batch) ahead of the case count,
// hence the four-zero prefixes; TestShardDecodeRejects fails if a layout
// change moves any of these inputs onto a different error.
var shardRejects = []struct {
	name string
	data []byte
	want string
}{
	{"empty input", []byte{}, "dist: truncated varint"},
	{"unterminated varint", []byte{0x80}, "dist: truncated varint"},
	{"truncated string", []byte{0x05, 'r', 'i'},
		"dist: graph text length 5 exceeds remaining input (2 bytes)"},
	{"hostile case count", []byte{0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F},
		"dist: case count 268435455 exceeds bound 1048576"},
	{"truncated varint inside a case", []byte{0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00},
		"dist: truncated varint"},
	{"trailing garbage", append((&dist.ShardDesc{GraphText: "# t\n2\n1/0\n0/0\n"}).Encode(), 0xAA),
		"dist: 1 trailing bytes after shard descriptor"},
}

func TestShardDecodeRejects(t *testing.T) {
	for _, tc := range shardRejects {
		var sh dist.ShardDesc
		if err := sh.Decode(tc.data); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Decode(%x) = %v, want %q", tc.name, tc.data, err, tc.want)
		}
	}
}

func FuzzShardDecode(f *testing.F) {
	// Valid encodings across the descriptor shapes.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(randShardDesc(r).Encode())
	}
	for _, tc := range shardRejects {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var sh dist.ShardDesc
		if err := sh.Decode(data); err != nil {
			return // rejected: fine, as long as it never panics
		}
		enc := sh.Encode()
		var sh2 dist.ShardDesc
		if err := sh2.Decode(enc); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\ninput: %x\nenc:   %x", err, data, enc)
		}
		if !reflect.DeepEqual(sh, sh2) {
			t.Fatalf("decode(encode(desc)) changed the descriptor\ninput: %x", data)
		}
		if enc2 := sh2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %x vs %x", enc, enc2)
		}
	})
}

// FuzzShardResultDecode applies the same contract to the result
// decoder: a ShardResult is the unit every worker result travels in, so
// it is the first decoder a byte off a worker socket reaches.
func FuzzShardResultDecode(f *testing.F) {
	// Valid encodings: two-agent and k-agent cases, with and without a
	// view signature.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		f.Add(randShardResult(r).AppendEncode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		var res dist.ShardResult
		if err := res.Decode(data); err != nil {
			return
		}
		enc := res.AppendEncode(nil)
		var res2 dist.ShardResult
		if err := res2.Decode(enc); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\ninput: %x", err, data)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("decode(encode(result)) changed the result\ninput: %x", data)
		}
		if enc2 := res2.AppendEncode(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %x vs %x", enc, enc2)
		}
	})
}
