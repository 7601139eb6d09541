package dist

import "io"

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
