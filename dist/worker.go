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
	"time"
	"unicode/utf8"

	"repro/sim"
)

// Worker-side defaults. The capacity is the read-ahead depth the worker
// announces in its hello frame: how many shard frames it is willing to
// hold decoded (one executing plus capacity-1 queued) — the coordinator
// pipelines up to that many shards per connection to hide dispatch
// latency on high-RTT links. The heartbeat interval bounds how long a
// healthy worker stays silent while a shard executes.
const (
	defaultWorkerCapacity = 4
	maxWorkerCapacity     = 64
	defaultHeartbeatEvery = 250 * time.Millisecond
)

// ErrCrashInjected is returned by Serve when a WithCrashAfterShards fault
// schedule fires: the worker severs the connection mid-shard, without a
// result frame, exactly like a crashed process. cmd/rvworker turns it
// into a nonzero exit in -crash-after mode.
var ErrCrashInjected = errors.New("dist: injected worker crash")

type serveCfg struct {
	capacity   int
	crashAfter int
	heartbeat  time.Duration
}

// ServeOption tunes one Serve call (capacity, heartbeats, fault
// injection). The defaults are production values; options exist for the
// fault-injection suite and the pipelining benchmarks.
type ServeOption func(*serveCfg)

// WithCapacity sets the read-ahead depth the worker announces in its
// hello frame (clamped to [1, 64]).
func WithCapacity(n int) ServeOption {
	return func(c *serveCfg) { c.capacity = n }
}

// WithHeartbeatInterval sets the minimum silence between heartbeat
// frames while a shard executes.
func WithHeartbeatInterval(d time.Duration) ServeOption {
	return func(c *serveCfg) { c.heartbeat = d }
}

// WithCrashAfterShards makes the worker crash while executing its n-th
// shard (counted across the connection's lifetime): the shard executes,
// but its result frame is withheld — Serve returns ErrCrashInjected,
// severing the connection the way a dying process would, and the
// coordinator must requeue the shard. n <= 0 disables the fault.
func WithCrashAfterShards(n int) ServeOption {
	return func(c *serveCfg) { c.crashAfter = n }
}

// shardItem is one frame handed from the connection reader to the
// executor: a decoded shard, or the decode error to answer with.
type shardItem struct {
	id        uint64
	sh        *ShardDesc
	decodeErr error
}

// Serve speaks the worker side of the dispatch protocol on one byte
// stream: announce hello (version + capacity), then answer each shard
// frame with one result (or error) frame until the stream ends. EOF is
// the only stop signal; at a clean EOF between shards Serve returns nil.
// A frame reader goroutine decodes shard frames ahead of execution into
// a capacity-bounded queue — the worker-side half of the coordinator's
// pipelined dispatch window — while the executor drains the queue
// sequentially on one pooled sim.Session, so a worker's runners,
// channels and script buffers stay warm across every shard the
// coordinator feeds it.
//
// Between cases the executor emits heartbeat frames whenever it has
// been silent longer than the heartbeat interval, so the coordinator
// can tell a slow shard from a hung worker. A shard whose descriptor
// fails to decode, or whose execution errors (unknown program, corrupt
// graph, out-of-range start), is answered with an error frame; the
// connection survives, and the coordinator treats it as a deterministic
// per-shard failure. A frame whose checksum fails, by contrast, means
// the stream itself can no longer be trusted: Serve returns the error
// and the connection dies, which the coordinator answers by requeueing.
// A program panic propagates and tears the worker down — panics are
// bugs, and hiding them behind a protocol frame would lose the stack.
//
// The caller owns the transport and must close it after Serve returns
// (every deployment mode does: NewInProcess closes its pipe end,
// ListenAndServe its conn, the stdio worker exits the process); closing
// is what releases a frame reader still blocked in a read.
func Serve(r io.Reader, w io.Writer, opts ...ServeOption) error {
	cfg := serveCfg{
		capacity:  defaultWorkerCapacity,
		heartbeat: defaultHeartbeatEvery,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.capacity < 1 {
		cfg.capacity = 1
	}
	if cfg.capacity > maxWorkerCapacity {
		cfg.capacity = maxWorkerCapacity
	}

	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriterSize(w, 1<<16)
	hello := []byte{frameHello, ProtoVersion}
	hello = binary.AppendUvarint(hello, uint64(cfg.capacity))
	if err := writeFrame(bw, hello); err != nil {
		return err
	}

	// done is closed when Serve returns, releasing a reader blocked on a
	// full queue; a reader blocked in readFrameSum is released by the
	// caller closing the transport.
	done := make(chan struct{})
	defer close(done)
	queue := make(chan shardItem, cfg.capacity)
	var readErr error // written before close(queue); read after the range — ordered by the close
	go func() {
		defer close(queue)
		var inBuf []byte
		for {
			payload, err := readFrameSum(br, inBuf)
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
			inBuf = payload[:0]
			if len(payload) == 0 {
				readErr = fmt.Errorf("dist: empty frame")
				return
			}
			if payload[0] != frameShard {
				readErr = fmt.Errorf("dist: unexpected frame type %d on worker", payload[0])
				return
			}
			d := &rd{data: payload[1:]}
			id := d.uvarint()
			if d.err != nil {
				readErr = d.err
				return
			}
			sh := new(ShardDesc)
			it := shardItem{id: id, sh: sh, decodeErr: sh.Decode(d.data)}
			select {
			case queue <- it:
			case <-done:
				return
			}
		}
	}()

	sess := sim.NewSession()
	defer sess.Close()
	// One batch arena per connection: batch-eligible shards reuse its
	// lane arrays across the whole connection, the same warm-state story
	// as the pooled session. The graph cache is per-connection for the
	// same reason: a sweep's shards repeat a handful of graphs, and the
	// decode plus view-signature derivation are the protocol's largest
	// per-shard costs.
	batch := sim.NewBatch()
	var gc graphCache
	var outBuf []byte
	executed := 0
	for it := range queue {
		if it.decodeErr != nil {
			if err := writeFrameSum(bw, appendErrorFrame(outBuf[:0], it.id, it.decodeErr)); err != nil {
				return err
			}
			continue
		}
		executed++
		lastSend := time.Now()
		var beatErr error
		progress := func(caseDone int) {
			if beatErr != nil || time.Since(lastSend) < cfg.heartbeat {
				return
			}
			lastSend = time.Now()
			hb := append(outBuf[:0], frameHeartbeat)
			hb = binary.AppendUvarint(hb, it.id)
			hb = binary.AppendUvarint(hb, uint64(caseDone))
			beatErr = writeFrameSum(bw, hb)
		}
		res, err := execShardOn(sess, batch, it.sh, &gc, progress)
		if beatErr != nil {
			return beatErr
		}
		if err != nil {
			if err := writeFrameSum(bw, appendErrorFrame(outBuf[:0], it.id, err)); err != nil {
				return err
			}
			continue
		}
		if cfg.crashAfter > 0 && executed >= cfg.crashAfter {
			return ErrCrashInjected
		}
		payload := append(outBuf[:0], frameResult)
		payload = binary.AppendUvarint(payload, it.id)
		payload = res.AppendEncode(payload)
		outBuf = payload[:0]
		if err := writeFrameSum(bw, payload); err != nil {
			return err
		}
	}
	return readErr
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
