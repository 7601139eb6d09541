package experiments

import (
	"fmt"
	"sync"

	"repro/dist"
)

// The sweep-heavy experiments (E7, E12, E17) run their case grids
// through the dist dispatcher: cases become serializable shard
// descriptors keyed by graph — the same (graph, parameter-block)
// sharding sim.Sweep used in-process — and execute on whatever backend
// is configured. The default is dist.NewInProcess, protocol workers
// inside this process; `rvx --dist-workers N` swaps in forked worker
// subprocesses, and `--dist-addrs` TCP workers on other machines. The
// dispatcher's byte-identical-aggregation invariant is what makes the
// swap safe: every backend returns the exact in-process results, so the
// regenerated tables are byte-for-byte the same however the sweep was
// executed (the CI smoke job diffs rvx output across modes).

// distBackend is the configured dispatcher backend; nil selects the
// shared in-process default.
var distBackend dist.Backend

// The default backend is created once and kept for the process lifetime,
// its protocol workers (and their pooled sessions) warm across every
// sweep — the dispatcher analogue of sim.Sweep amortizing its worker
// pool, and what keeps the default experiment path free of per-call
// backend setup.
var (
	inprocOnce sync.Once
	inproc     dist.Backend
)

// SetDistBackend routes the distributable experiment sweeps through be
// (nil restores the in-process default). The caller keeps ownership:
// backends are reusable across sweeps and closed by the caller.
func SetDistBackend(be dist.Backend) { distBackend = be }

// SweepError is the panic value of an experiment whose sweep its
// backend failed to run: no worker could be started, every worker died,
// a shard failed on a worker. Such a failure is not a per-case
// observation, so the experiment cannot return a table; the experiment
// functions keep their error-free signatures, and a caller that can
// report the failure (rvx) recovers this type alone.
type SweepError struct {
	Err error // the backend's error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("experiments: distributed sweep failed: %v", e.Err)
}

func (e *SweepError) Unwrap() error { return e.Err }

// runPlan executes a planner on the configured backend, panicking with a
// *SweepError when the backend fails rather than fabricating table rows.
func runPlan(p *dist.Planner) []dist.CaseResult {
	be := distBackend
	if be == nil {
		inprocOnce.Do(func() { inproc = dist.NewInProcess(0) })
		be = inproc
	}
	res, err := p.Run(be)
	if err != nil {
		panic(&SweepError{Err: err})
	}
	return res
}
