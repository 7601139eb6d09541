package dist

import (
	"io"

	"repro/agent"
)

// Test-only seams, exported to the external test package.

// ConnAdder is the elastic side of a connection backend: it accepts
// extra worker connections at any time, including while a Run is in
// flight — the late-joining worker picks up queued and requeued shards
// immediately.
type ConnAdder interface {
	AddConn(rw io.ReadWriter, closer io.Closer)
}

// NewFromStreams returns a backend over caller-supplied byte streams,
// one worker connection per stream — the seam the fault-injection suite
// drives custom transports (FaultConn wrappers, hung or scripted fake
// workers) through. The caller owns the worker side of each stream.
func NewFromStreams(streams []io.ReadWriteCloser, opts ...Option) Backend {
	conns := make([]*wconn, len(streams))
	for i, s := range streams {
		conns[i] = newWconn(s, s)
	}
	return newConnBackend(conns, nil, opts...)
}

// Len returns the number of cases added so far.
func (p *Planner) Len() int { return p.n }

// BuildProgram resolves a program descriptor against the registry with
// no seed-range constraint — the in-process twin of the worker's
// resolution, for tests that run the very same named program directly.
func BuildProgram(p ProgDesc) (agent.Program, error) {
	return buildProg(&p, 0, 0)
}

// ScriptProgArgs encodes a script action list (the agent.Script alphabet:
// ports, ScriptWait, Rel offsets) as wire args for the builtin "script"
// program; negative actions ride zigzag-encoded.
func ScriptProgArgs(actions []int) []uint64 {
	args := make([]uint64, len(actions))
	for i, a := range actions {
		args[i] = zigzag(int64(a))
	}
	return args
}

// zigzag encodes a signed int into the uvarint alphabet unzigzag decodes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
