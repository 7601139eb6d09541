package dist

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"unicode/utf8"
)

// truncateErrMsg must never split a UTF-8 rune: error frames are bounded
// at maxErrStrLen bytes, and a naive byte cut at the bound leaves an
// invalid tail when a multi-byte rune straddles it.
func TestTruncateErrMsg(t *testing.T) {
	cases := []struct {
		name string
		msg  string
		max  int
	}{
		{"short ascii untouched", "plain error", 64},
		{"exact fit untouched", "12345678", 8},
		{"ascii cut", strings.Repeat("x", 100), 10},
		{"multibyte straddling the cut", strings.Repeat("é", 50), 11},
		{"three-byte runes", strings.Repeat("界", 50), 20},
		{"four-byte runes", strings.Repeat("🜁", 50), 17},
		{"tiny budget", "界界界", 2},
		{"zero budget", "abc", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := truncateErrMsg(tc.msg, tc.max)
			if len(tc.msg) <= tc.max {
				if got != tc.msg {
					t.Fatalf("short message altered: %q -> %q", tc.msg, got)
				}
				return
			}
			if len(got) > tc.max {
				t.Fatalf("truncated to %d bytes, budget %d", len(got), tc.max)
			}
			if !utf8.ValidString(got) {
				t.Fatalf("truncation produced invalid UTF-8: %q", got)
			}
			if tc.max >= len("…") && !strings.HasSuffix(got, "…") {
				t.Fatalf("truncation not marked with an ellipsis: %q", got)
			}
			if !strings.HasPrefix(tc.msg, strings.TrimSuffix(got, "…")) {
				t.Fatalf("truncation is not a prefix of the message: %q", got)
			}
		})
	}
	// Property sweep: every cut point of a mixed-width string stays valid
	// UTF-8 and within budget.
	mixed := "a界é🜁z¡ascii界🜁"
	for max := 0; max <= len(mixed)+2; max++ {
		got := truncateErrMsg(mixed, max)
		if len(got) > max && len(mixed) > max {
			t.Fatalf("max %d: output %d bytes", max, len(got))
		}
		if !utf8.ValidString(got) {
			t.Fatalf("max %d: invalid UTF-8 %q", max, got)
		}
	}
}

// The error frame path end-to-end: a too-long message crossing
// maxErrStrLen must produce a frame whose string decodes under the
// decoder's bound.
func TestAppendErrorFrameBounded(t *testing.T) {
	long := strings.Repeat("é", maxErrStrLen) // 2 bytes per rune: twice the bound
	frame := appendErrorFrame(nil, 7, errString(long))
	d := &rd{data: frame[1:]}
	if id := d.uvarint(); id != 7 {
		t.Fatalf("shard id %d, want 7", id)
	}
	msg := d.str(maxErrStrLen, "error message")
	if d.err != nil {
		t.Fatalf("error frame does not decode under the wire bound: %v", d.err)
	}
	if !utf8.ValidString(msg) {
		t.Fatal("decoded error message is invalid UTF-8")
	}
	if !strings.HasSuffix(msg, "…") {
		t.Fatalf("truncated message lacks the ellipsis marker: %q", msg[len(msg)-8:])
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// Retired frame tags (3, the v1 whole-shard result; 5, the v2–v4
// shutdown; 7, the v2–v4 result chunk; 8, the v3 mid-shard migration
// frame) must never decode as anything else: a worker that receives one
// — say from a stale coordinator — fails the connection with an
// unexpected-frame-type error.
func TestWorkerRejectsRetiredFrames(t *testing.T) {
	for _, tag := range []byte{3, 5, 7, 8} {
		cp, wp := net.Pipe()
		done := make(chan error, 1)
		go func() {
			err := Serve(wp, wp)
			wp.Close()
			done <- err
		}()
		go io.Copy(io.Discard, cp) // the hello, and any answer
		// The retired frame, then EOF: a worker that took the retired
		// frame for one it knows (or for a stop signal) would answer it
		// and exit cleanly.
		var frame bytes.Buffer
		if err := writeFrameSum(bufio.NewWriter(&frame), []byte{tag, 0, 0}); err != nil {
			t.Fatal(err)
		}
		// A worker that fails the connection may close before reading
		// everything, so the write error carries no verdict.
		_, _ = cp.Write(frame.Bytes())
		cp.Close()
		err := <-done
		if err == nil || !strings.Contains(err.Error(), "unexpected frame type") {
			t.Fatalf("tag %d: Serve returned %v, want an unexpected-frame-type error", tag, err)
		}
	}
}
