package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"unicode/utf8"

	"repro/sim"
)

// ErrCrashInjected is returned by Serve when a WithCrashAfterShards fault
// schedule fires: the worker severs the connection mid-shard, without a
// result frame, exactly like a crashed process. cmd/rvworker turns it
// into a nonzero exit in -crash-after mode.
var ErrCrashInjected = errors.New("dist: injected worker crash")

type serveCfg struct {
	crashAfter int
}

// ServeOption tunes one Serve call. The only option is fault injection;
// the defaults are production values.
type ServeOption func(*serveCfg)

// WithCrashAfterShards makes the worker crash while executing its n-th
// shard (counted across the connection's lifetime): the shard executes,
// but its result frame is withheld — Serve returns ErrCrashInjected,
// severing the connection the way a dying process would, and the
// coordinator must requeue the shard. n <= 0 disables the fault.
func WithCrashAfterShards(n int) ServeOption {
	return func(c *serveCfg) { c.crashAfter = n }
}

// Serve speaks the worker side of the dispatch protocol on one byte
// stream: announce hello (the protocol version), then read a shard
// frame, execute it and answer with one result (or error) frame, until
// the stream ends. EOF is the only stop signal; at a clean EOF between
// shards Serve returns nil. The coordinator keeps one shard in flight
// per connection, so the loop never reads ahead. Every shard runs on one
// pooled sim.Session, so a worker's runners and script buffers stay warm
// across every shard the coordinator feeds it.
//
// A shard whose descriptor fails to decode, or whose execution errors
// (unknown program, corrupt graph, out-of-range start), is answered with
// an error frame; the connection survives, and the coordinator treats it
// as a deterministic per-shard failure. A frame whose checksum fails, by
// contrast, means the stream itself can no longer be trusted: Serve
// returns the error and the connection dies, which the coordinator
// answers by requeueing. A program panic propagates and tears the worker
// down — panics are bugs, and hiding them behind a protocol frame would
// lose the stack. The caller owns the transport and closes it after
// Serve returns.
func Serve(r io.Reader, w io.Writer, opts ...ServeOption) error {
	var cfg serveCfg
	for _, o := range opts {
		o(&cfg)
	}
	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeFrame(bw, []byte{frameHello, ProtoVersion}); err != nil {
		return err
	}

	sess := sim.NewSession()
	defer sess.Close()
	// The graph cache is per-connection, the same warm-state story as the
	// pooled session: a sweep's shards repeat a handful of graphs, and the
	// decode plus view-signature derivation are the protocol's largest
	// per-shard costs.
	var gc graphCache
	var inBuf, outBuf []byte
	executed := 0
	for {
		payload, err := readFrameSum(br, inBuf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		inBuf = payload[:0]
		if len(payload) == 0 {
			return fmt.Errorf("dist: empty frame")
		}
		if payload[0] != frameShard {
			return fmt.Errorf("dist: unexpected frame type %d on worker", payload[0])
		}
		d := &rd{data: payload[1:]}
		id := d.uvarint()
		if d.err != nil {
			return d.err
		}
		var sh ShardDesc
		var res *ShardResult
		if err = sh.Decode(d.data); err == nil {
			executed++
			res, err = execShard(sess, &sh, &gc)
		}
		var out []byte
		switch {
		case err != nil:
			out = appendErrorFrame(outBuf[:0], id, err)
		case cfg.crashAfter > 0 && executed >= cfg.crashAfter:
			return ErrCrashInjected
		default:
			out = binary.AppendUvarint(append(outBuf[:0], frameResult), id)
			out = res.AppendEncode(out)
		}
		outBuf = out[:0]
		if err := writeFrameSum(bw, out); err != nil {
			return err
		}
	}
}

// truncateErrMsg bounds an error message to max bytes without cutting a
// UTF-8 rune in half, marking the cut with an ellipsis so coordinator-
// side error text stays valid UTF-8 and visibly truncated.
func truncateErrMsg(msg string, max int) string {
	if len(msg) <= max {
		return msg
	}
	const ellipsis = "…" // 3 bytes
	if max < len(ellipsis) {
		// Degenerate budget: no room for the marker, just cut clean.
		cut := max
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		return msg[:cut]
	}
	cut := max - len(ellipsis)
	for cut > 0 && !utf8.RuneStart(msg[cut]) {
		cut--
	}
	return msg[:cut] + ellipsis
}

func appendErrorFrame(dst []byte, id uint64, err error) []byte {
	dst = append(dst, frameError)
	dst = binary.AppendUvarint(dst, id)
	return appendString(dst, truncateErrMsg(err.Error(), maxErrStrLen))
}

// ListenAndServe accepts connections on l and serves each with its own
// session in its own goroutine — the TCP worker mode of cmd/rvworker. It
// returns the first Accept error (closing the listener is the way to
// stop it); per-connection protocol errors are logged to stderr and end
// only that connection.
func ListenAndServe(l net.Listener, opts ...ServeOption) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := Serve(c, c, opts...); err != nil {
				fmt.Fprintf(os.Stderr, "dist: worker connection %v: %v\n", c.RemoteAddr(), err)
			}
		}(conn)
	}
}

// WorkerEnv is the environment variable that marks a process as a forked
// protocol worker (see RunWorkerIfChild and the Local backend's self-exec
// mode). CrashEnv, when additionally set to a positive integer, arms the
// crash-after-N-shards fault schedule in the forked worker — the knob the
// chaos smoke test uses to kill and respawn real worker processes.
const (
	WorkerEnv = "RV_DIST_WORKER"
	CrashEnv  = "RV_DIST_CRASH_AFTER"
)

// RunWorkerIfChild turns the current process into a stdio protocol worker
// and never returns when WorkerEnv is set; it is a no-op otherwise. Any
// binary that wants to be its own worker pool (cmd/rvx, the test
// binaries) calls it first thing in main/TestMain, and NewLocal with a
// nil argv re-execs the calling binary with the variable set.
func RunWorkerIfChild() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	var opts []ServeOption
	if n, err := strconv.Atoi(os.Getenv(CrashEnv)); err == nil && n > 0 {
		opts = append(opts, WithCrashAfterShards(n))
	}
	if err := Serve(os.Stdin, os.Stdout, opts...); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}
