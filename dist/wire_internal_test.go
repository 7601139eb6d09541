package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

// FuzzFrameDecode feeds arbitrary bytes to every reader of the framing
// under the codecs: the coordinator's hello check, readFrame and
// readFrameSum. Each must return an error or a payload, never panic, and
// every payload it returns must frame again into one that reads back
// equal. CI runs a short -fuzz smoke on top of the seed corpus: one
// valid frame of each kind.
func FuzzFrameDecode(f *testing.F) {
	shard := binary.AppendUvarint([]byte{frameShard}, 3)
	shard = (&ShardDesc{GraphText: "# t\n2\n1/0\n0/0\n"}).AppendEncode(shard)
	f.Add(frameBytes(f, writeFrame, []byte{frameHello, ProtoVersion}))
	f.Add(frameBytes(f, writeFrame, []byte("plain payload")))
	f.Add(frameBytes(f, writeFrameSum, shard))

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
		}{{readFrame, writeFrame}, {readFrameSum, writeFrameSum}}
		var enc bytes.Buffer
		bw, src := bufio.NewWriter(&enc), new(bytes.Reader)
		br := bufio.NewReader(src)
		for _, rw := range readers {
			r := bufio.NewReader(bytes.NewReader(data))
			var buf, spare []byte
			for {
				p, err := rw.read(r, buf)
				if err != nil {
					break
				}
				enc.Reset()
				if err := rw.write(bw, p); err != nil {
					t.Fatalf("payload %x read from %x does not frame again: %v", p, data, err)
				}
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
