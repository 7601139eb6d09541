package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frameBytes is payload framed as write frames it.
func frameBytes(t testing.TB, write func(*bufio.Writer, []byte) error, payload []byte) []byte {
	var b bytes.Buffer
	if err := write(bufio.NewWriter(&b), payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// A length prefix is a claim, not a payment: a peer that sends the
// 4-byte prefix of a maxFrame frame and hangs up must cost the reader
// kilobytes, not the 64 MiB it claimed. A frame that fits the reused
// buffer still reads into it without allocating.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	prefix := binary.AppendUvarint(nil, maxFrame)
	if len(prefix) != 4 {
		t.Fatalf("maxFrame's prefix is %d bytes, want 4", len(prefix))
	}
	r := bufio.NewReader(bytes.NewReader(prefix))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(r, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("readFrame accepted a prefix with no payload")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a bare maxFrame prefix allocated %d bytes, want under 64 KiB", got)
	}

	frame := frameBytes(t, writeFrame, bytes.Repeat([]byte{7}, 3000))
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(20, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, err := readFrame(br, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a frame that fits the reused buffer took %.0f allocs, want 0", allocs)
	}
}

// errsThenOther is a transport whose first Read fails with first and
// every later Read with a different error, as a forked worker's stdout
// does once the read that hit its end has reaped the process.
type errsThenOther struct {
	first error
	reads int
}

func (e *errsThenOther) Read([]byte) (int, error) {
	if e.reads++; e.reads == 1 {
		return 0, e.first
	}
	return 0, errors.New("read |0: file already closed")
}

// readFrame reports the error of the read that failed, not of a second
// read it makes afterwards: bufio hands a read error out once. A clean
// end before the prefix stays io.EOF itself.
func TestReadFrameReportsFirstReadError(t *testing.T) {
	exit := errors.New("worker exited: exit status 1")
	if _, err := readFrame(bufio.NewReader(&errsThenOther{first: exit}), nil); !errors.Is(err, exit) {
		t.Fatalf("readFrame returned %v, want the first read's %q", err, exit)
	}
	if _, err := readFrame(bufio.NewReader(&errsThenOther{first: io.EOF}), nil); err != io.EOF {
		t.Fatalf("readFrame returned %v, want io.EOF", err)
	}
	// Inside a prefix, the end of the stream is unexpected.
	partial := io.MultiReader(bytes.NewReader([]byte{0x80}), &errsThenOther{first: io.EOF})
	if _, err := readFrame(bufio.NewReader(partial), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readFrame returned %v inside a prefix, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to every reader of the framing
// under the codecs: the coordinator's hello check, readFrame and
// ReadFrameSum. Each must return an error or a payload, never panic, and
// every payload it returns must frame again into exactly the bytes it was
// read from (a frame has one spelling) and read back equal. CI runs a
// short -fuzz smoke on top of the seed corpus: one valid frame of each
// kind, and one whose length prefix is not minimally encoded.
func FuzzFrameDecode(f *testing.F) {
	shard := binary.AppendUvarint([]byte{frameShard}, 3)
	shard = (&ShardDesc{GraphText: "# t\n2\n1/0\n0/0\n"}).AppendEncode(shard)
	f.Add(frameBytes(f, writeFrame, []byte{frameHello, ProtoVersion}))
	f.Add(frameBytes(f, writeFrame, []byte("plain payload")))
	f.Add(frameBytes(f, WriteFrameSum, shard))
	f.Add([]byte{0x82, 0x00, frameHello, ProtoVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		if (&wconn{r: bufio.NewReader(bytes.NewReader(data))}).handshake() == nil {
			p, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
			if err != nil || !bytes.Equal(p, []byte{frameHello, ProtoVersion}) {
				t.Fatalf("handshake accepted %x, whose first frame is %x (%v)", data, p, err)
			}
		}
		readers := []struct {
			read  func(*bufio.Reader, []byte) ([]byte, error)
			write func(*bufio.Writer, []byte) error
		}{{readFrame, writeFrame}, {ReadFrameSum, WriteFrameSum}}
		var enc bytes.Buffer
		bw, src := bufio.NewWriter(&enc), new(bytes.Reader)
		br := bufio.NewReader(src)
		for _, rw := range readers {
			in := bytes.NewReader(data)
			r := bufio.NewReader(in)
			var buf, spare []byte
			for off := 0; ; {
				p, err := rw.read(r, buf)
				if err != nil {
					break
				}
				enc.Reset()
				if err := rw.write(bw, p); err != nil {
					t.Fatalf("payload %x read from %x does not frame again: %v", p, data, err)
				}
				end := len(data) - in.Len() - r.Buffered()
				if !bytes.Equal(enc.Bytes(), data[off:end]) {
					t.Fatalf("frame %x framed again is %x", data[off:end], enc.Bytes())
				}
				off = end
				src.Reset(enc.Bytes())
				br.Reset(src)
				again, err := rw.read(br, spare)
				if err != nil || !bytes.Equal(again, p) {
					t.Fatalf("payload %x framed again reads back %x (%v)", p, again, err)
				}
				buf, spare = p[:0], again[:0]
			}
		}
	})
}
