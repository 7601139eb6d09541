package dist_test

import (
	"errors"
	"io"
	"sync"
	"time"
)

// This file is the fault-injection seam of the dist test suite: a
// deterministic, seeded transport wrapper that perturbs the byte stream
// between coordinator and worker the way real deployments do — delayed
// frames, corrupted bytes, connections that die mid-stream — without any
// real network. The differential suite in fault_test.go drives sweeps
// through FaultConn schedules and asserts the aggregation invariant
// anyway; determinism (same seed, same fault schedule) is what makes a
// failing schedule replayable.

// ErrFaultSevered is the error injected reads and writes return once a
// FaultConn's sever schedule has fired.
var ErrFaultSevered = errors.New("dist: connection severed by fault injection")

// FaultPlan configures one FaultConn. Probabilities are per WRITE call;
// the protocol flushes once per frame, so with a bufio.Writer on top of
// the FaultConn each write the plan sees is exactly one frame (length
// prefix, payload and checksum together) — faults are frame-granular,
// which mirrors how a real packet loss or cut manifests to the framing
// layer.
type FaultPlan struct {
	Seed uint64 // schedule seed; 0 means 1

	DropProb   float64       // silently swallow the frame
	GarbleProb float64       // flip one random byte of the frame
	DelayProb  float64       // sleep Delay before forwarding
	Delay      time.Duration // per-delayed-frame latency

	// SeverAfterWrites cuts the connection for good after the n-th
	// successful write (0 disables): later writes and all reads fail with
	// ErrFaultSevered and the inner transport is closed. This is the
	// "worker host died mid-sweep" fault.
	SeverAfterWrites int
}

// FaultConn wraps a transport with a seeded deterministic fault
// schedule applied on the WRITE side (each direction of a link gets its
// own wrapper, so a test chooses independently whether coordinator→worker
// or worker→coordinator traffic is faulty). Reads pass through until a
// sever fires. Safe for one writer and one reader goroutine, the
// protocol's usage.
type FaultConn struct {
	inner io.ReadWriteCloser
	plan  FaultPlan

	mu      sync.Mutex
	rng     uint64
	writes  int
	severed bool
}

// NewFaultConn wraps inner with the given fault plan.
func NewFaultConn(inner io.ReadWriteCloser, plan FaultPlan) *FaultConn {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultConn{inner: inner, plan: plan, rng: seed}
}

// next is a xorshift64* step — tiny, seedable, good enough for fault
// schedules, and dependency-free.
func (f *FaultConn) next() uint64 {
	x := f.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	f.rng = x
	return x * 2685821657736338717
}

// roll returns true with probability p, advancing the schedule.
func (f *FaultConn) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(f.next()>>11)/float64(1<<53) < p
}

func (f *FaultConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	severed := f.severed
	f.mu.Unlock()
	if severed {
		return 0, ErrFaultSevered
	}
	return f.inner.Read(p)
}

func (f *FaultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	if f.severed {
		f.mu.Unlock()
		return 0, ErrFaultSevered
	}
	drop := f.roll(f.plan.DropProb)
	garble := !drop && f.roll(f.plan.GarbleProb)
	delay := !drop && f.roll(f.plan.DelayProb)
	var garbleAt int
	var garbleWith byte
	if garble && len(p) > 0 {
		garbleAt = int(f.next() % uint64(len(p)))
		garbleWith = byte(f.next()) | 1 // never XOR with 0 (a no-op garble)
	}
	f.writes++
	sever := f.plan.SeverAfterWrites > 0 && f.writes >= f.plan.SeverAfterWrites
	if sever {
		f.severed = true
	}
	f.mu.Unlock()

	if delay && f.plan.Delay > 0 {
		time.Sleep(f.plan.Delay)
	}
	if drop {
		// The frame vanishes; the caller believes it was sent. The
		// stream itself stays framed for LATER writes, so a dropped
		// frame manifests to the peer as a missing message — the
		// coordinator's deadline watchdog, not the codec, is what
		// notices.
		if sever {
			_ = f.inner.Close()
		}
		return len(p), nil
	}
	if garble && len(p) > 0 {
		tmp := make([]byte, len(p))
		copy(tmp, p)
		tmp[garbleAt] ^= garbleWith
		p = tmp
	}
	n, err := f.inner.Write(p)
	if sever {
		_ = f.inner.Close()
		if err == nil {
			err = ErrFaultSevered
		}
	}
	return n, err
}

// Close closes the inner transport and marks the conn severed.
func (f *FaultConn) Close() error {
	f.mu.Lock()
	f.severed = true
	f.mu.Unlock()
	return f.inner.Close()
}
