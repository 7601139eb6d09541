package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// This file is the transport layer of the dispatch protocol: varint
// length-prefixed frames over any byte stream (a worker subprocess's
// stdin/stdout pipes, a TCP connection, an in-memory net.Pipe), plus the
// bounded cursor reader every descriptor and result codec decodes
// through. The framing deliberately matches the view.Tree codec's idiom —
// binary.AppendUvarint on the way out, hardened bounds on the way in — so
// one hostile byte stream can at worst produce an error, never a panic or
// an unbounded allocation.

// ProtoVersion is the wire protocol version. A worker announces its
// version in the hello frame and the coordinator refuses mismatches:
// descriptors are not self-describing, so cross-version traffic would
// misdecode rather than degrade. v2 added per-frame checksums, a
// read-ahead window announced in the hello, liveness frames sent while a
// shard executes and chunked result frames; v3 added a mid-shard
// migration frame (tag 8), since retired: a lost shard requeues from
// case zero. v4 trimmed the shard descriptor to its graph
// image, seed range, Batch flag and cases. v5 answers each shard with one
// result frame (tag 9) instead of a chunk stream (tag 7), and drops the
// shutdown frame (tag 5): a worker stops on its transport's EOF. v6 keeps
// one shard in flight per connection: the hello carries the version
// alone, and the liveness frame (tag 6) is retired. See doc.go for the
// frame table.
const ProtoVersion = 6

// CodecVersion is the generation of the ShardDesc and ShardResult
// encodings, which v5 and v6 carry unchanged from v4. rvd folds it, not
// ProtoVersion, into its cache keys, which hash descriptor bytes and
// store result bytes, so a change to framing alone strands no stored
// results. A change to either codec bumps both constants.
const CodecVersion = 4

// maxFrame bounds one frame's payload (64 MiB): far above any real shard
// descriptor or aggregate, low enough that a corrupt length prefix cannot
// demand gigabytes before the first payload byte arrives.
const maxFrame = 1 << 26

// Frame type tags (first payload byte).
const (
	frameHello  byte = 1 // worker → coordinator, once, on connect: version
	frameShard  byte = 2 // coordinator → worker: shard id + descriptor
	frameError  byte = 4 // worker → coordinator: shard id + message (deterministic failure)
	frameResult byte = 9 // worker → coordinator: shard id + ShardResult (the whole shard)
	// Retired tags, never reused: 3 (the v1 whole-shard result), 5 (the
	// v2–v4 shutdown frame), 6 (the v2–v5 heartbeat), 7 (the v2–v4
	// result chunk) and 8 (the v3 mid-shard migration frame).
)

// writeFrame emits one length-prefixed frame and flushes.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// Every frame except the hello carries a trailing 32-bit FNV-1a checksum
// of its payload (inside the length-prefixed region). The checksum is
// what lets both ends tell "corrupted in transit" apart from "well-formed
// but semantically bad": a frame whose checksum fails kills the
// CONNECTION (the stream can no longer be trusted; the coordinator
// requeues the connection's in-flight shards), while a frame that decodes
// cleanly but names an unknown program or an out-of-range start is a
// deterministic per-shard error that would fail identically on any
// worker. The hello stays checksum-free so version negotiation keeps the
// v1 framing — a v1 peer is refused by the version byte, not by a
// checksum desync.
func frameSum(payload []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range payload {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// WriteFrameSum emits one length-prefixed frame with its checksum
// appended inside the length-prefixed region, and flushes. rvd frames its
// job requests and responses with it.
func WriteFrameSum(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrame-4 {
		return fmt.Errorf("dist: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+4))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], frameSum(payload))
	if _, err := w.Write(sum[:]); err != nil {
		return err
	}
	return w.Flush()
}

// ReadFrameSum reads one checksummed frame and returns its payload with
// the checksum verified and stripped, reusing buf as readFrame does.
// io.EOF before the frame's first byte is returned verbatim.
func ReadFrameSum(r *bufio.Reader, buf []byte) ([]byte, error) {
	p, err := readFrame(r, buf)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("dist: %d-byte frame too short for checksum", len(p))
	}
	body, sum := p[:len(p)-4], p[len(p)-4:]
	if got := binary.LittleEndian.Uint32(sum); got != frameSum(body) {
		return nil, fmt.Errorf("dist: frame checksum mismatch (corrupted in transit)")
	}
	return body, nil
}

// frameGrowStep is the most readFrame allocates ahead of the bytes it
// has received when a frame outgrows the caller's buffer.
const frameGrowStep = 16 << 10

// readFrame reads one frame payload, reusing buf when it is large enough.
// io.EOF is returned verbatim (clean end of stream) only when it occurs
// before the first length byte. The length prefix must be minimally
// encoded, so every frame has one spelling. A length prefix is only a
// claim: past buf's capacity the payload grows with the bytes that
// arrive, by at most the larger of frameGrowStep and what has arrived so
// far, so a peer that sends a large prefix and no payload costs no large
// allocation.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	// Peek at the prefix's bytes first: ReadUvarint accepts redundant
	// spellings (0x80 0x00 for zero) that this refuses. Each peek waits
	// only for a byte the prefix must still have. A peek's error is the
	// one to report: bufio hands a read error out once, so a later read
	// would ask the transport again (and a reaped worker's pipe answers
	// "file already closed", not its exit status).
	for k := 1; k < binary.MaxVarintLen64; k++ {
		p, err := r.Peek(k)
		switch {
		case err == io.EOF && k == 1:
			return nil, io.EOF
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
			fallthrough
		case err != nil:
			return nil, fmt.Errorf("dist: reading frame length: %w", err)
		}
		if b := p[k-1]; b < 0x80 {
			if b == 0 && k > 1 {
				return nil, fmt.Errorf("dist: frame length not minimally encoded")
			}
			break
		}
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("dist: reading frame length: %w", err)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame length %d exceeds limit", n)
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		want := int(n) - len(buf)
		if want > cap(buf)-len(buf) {
			want = min(want, max(len(buf), frameGrowStep))
			buf = slices.Grow(buf, want)
		}
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+want])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, fmt.Errorf("dist: reading %d-byte frame: %w", n, err)
		}
	}
	return buf, nil
}

// Decode bounds: a corrupt or hostile descriptor can claim at most these
// counts before the reader errors out, so decoding allocates O(input)
// (pinned by FuzzShardDecode).
const (
	maxCases     = 1 << 20
	maxAgents    = 1 << 16
	maxArgs      = 1 << 12
	maxNameLen   = 1 << 10
	maxGraphLen  = 1 << 22
	maxMeetings  = 1 << 20
	maxViewSig   = 1 << 22
	maxErrStrLen = 1 << 16
)

// rd is the bounded cursor all wire decoding goes through: every getter
// records the first failure and degrades to zero values, so codecs read
// a whole structure and check err once.
type rd struct {
	data []byte
	err  error

	// interned is the most-recent ring behind strInterned.
	interned [4]string
	nintern  uint8
}

func (d *rd) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: "+format, args...)
	}
}

func (d *rd) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// count reads a uvarint bounded by max, for length prefixes.
func (d *rd) count(max uint64, what string) int {
	v := d.uvarint()
	if d.err == nil && v > max {
		d.fail("%s count %d exceeds bound %d", what, v, max)
		return 0
	}
	return int(v)
}

func (d *rd) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *rd) bool() bool { return d.byteVal() != 0 }

// bytes reads a uvarint length prefix bounded by max, then that many raw
// bytes (returned as a sub-slice of the input, not a copy).
func (d *rd) bytes(max uint64, what string) []byte {
	n := d.count(max, what)
	if d.err != nil {
		return nil
	}
	if n > len(d.data) {
		d.fail("%s length %d exceeds remaining input (%d bytes)", what, n, len(d.data))
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *rd) str(max uint64, what string) string { return string(d.bytes(max, what)) }

// strInterned is str for fields whose values repeat heavily within one
// decode pass — program names above all: a shard's cases cite the same
// one or two registry entries over and over. A tiny most-recent ring
// turns the repeats into pointer reuse instead of a per-case string
// allocation (the == against string(b) compiles allocation-free).
func (d *rd) strInterned(max uint64, what string) string {
	b := d.bytes(max, what)
	for _, s := range d.interned {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	d.interned[d.nintern&3] = s
	d.nintern++
	return s
}

// rest reports how many undecoded bytes remain.
func (d *rd) rest() int { return len(d.data) }

// Append-side helpers, symmetric with rd.
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// unzigzag decodes a zigzag-encoded program arg back into a signed int;
// script actions (ScriptWait, Rel offsets) are negative, program args
// ride as uint64.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
