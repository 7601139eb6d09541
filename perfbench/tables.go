package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/dist"
	"repro/experiments"
)

// tablesSHA256 is the SHA-256 of `rvx -markdown`'s output (the 19 quick
// tables), the same at GOMAXPROCS 1 and 2. The tables are the paper's
// reproduced results and must stay byte-identical, so every tables op is
// checked against it.
const tablesSHA256 = "ff86a5c362fa6831248a65cd0c5f01587028d264685e991d99df46c9d20d770d"

// experimentFleet is the plain in-process fleet the tables and sweeps
// workloads route the distributable sweeps through, wrapped in a
// timedBackend in traced runs.
type experimentFleet struct {
	fleet dist.Backend
	tb    *timedBackend
}

func (f *experimentFleet) start(r *runner) {
	f.fleet = dist.NewInProcess(0)
	be := f.fleet
	if r.tr != nil {
		f.tb = newTimedBackend(f.fleet, r.tr, trackClient)
		r.tb = f.tb
		be = f.tb
	}
	experiments.SetDistBackend(be)
}

func (f *experimentFleet) stop() {
	experiments.SetDistBackend(nil)
	if f.fleet != nil {
		_ = f.fleet.Close()
	}
	*f = experimentFleet{}
}

// runTable runs one experiment inside an experiments.<id> span, labelling
// the fleet calls it makes with its id.
func (f *experimentFleet) runTable(tr *tracer, id string, run func() *experiments.Table) *experiments.Table {
	f.tb.setLabel(id)
	start := tr.now()
	tbl := run()
	tr.layer("experiments."+id, start)
	return tbl
}

// tablesWorkload: op = one `rvx -markdown` regeneration of the 19 quick
// tables, rendered in rvx's byte layout, on a plain in-process fleet.
type tablesWorkload struct {
	experimentFleet
	out    bytes.Buffer
	failed []string
}

func (w *tablesWorkload) setup(r *runner) error {
	w.start(r)
	// The cold first regeneration is part of set-up: a one-shot rvx user
	// pays it.
	w.regenerate(nil)
	return w.check()
}

func (w *tablesWorkload) run(r *runner, ops int) error {
	for i := 0; i < ops; i++ {
		r.op("tables", i%2 == 0, func(tr *tracer) error {
			w.regenerate(tr)
			return nil
		}, w.check)
	}
	return nil
}

func (w *tablesWorkload) teardown() { w.stop() }

// regenerate renders every table as `rvx -markdown` prints it: each
// table's Markdown followed by a blank line.
func (w *tablesWorkload) regenerate(tr *tracer) {
	w.out.Reset()
	w.failed = w.failed[:0]
	for _, e := range experiments.Registry(false) {
		tbl := w.runTable(tr, e.ID, e.Run)
		w.out.WriteString(tbl.Markdown())
		w.out.WriteString("\n\n")
		w.failed = append(w.failed, tbl.Failed...)
	}
}

func (w *tablesWorkload) check() error {
	if len(w.failed) > 0 {
		return fmt.Errorf("%d table checks failed, first: %s", len(w.failed), w.failed[0])
	}
	sum := sha256.Sum256(w.out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != tablesSHA256 {
		return fmt.Errorf("tables SHA-256 %s, want %s", got, tablesSHA256)
	}
	return nil
}

// sweepsWorkload: op = the production sweeps E7, E12 and E17 in order,
// their table checks passing and their output identical to the first
// op's.
type sweepsWorkload struct {
	experimentFleet
	traceOut string // traced runs: where the coordinator's shard timeline goes
	tables   []*experiments.Table
	first    [sha256.Size]byte
}

func (w *sweepsWorkload) setup(r *runner) error {
	w.start(r)
	if r.tr != nil {
		w.traceOut = filepath.Join(r.cfg.out, "sweeps-dist-trace.json")
	}
	// Cold first op, as in set-up of any process that runs the sweeps.
	w.sweep(nil)
	w.first = w.digest()
	return w.check()
}

func (w *sweepsWorkload) run(r *runner, ops int) error {
	for i := 0; i < ops; i++ {
		r.op("sweeps", i%2 == 0, func(tr *tracer) error {
			w.sweep(tr)
			return nil
		}, w.check)
	}
	return nil
}

func (w *sweepsWorkload) teardown() {
	if w.traceOut != "" && w.fleet != nil {
		// The coordinator's own shard-lifecycle timeline, next to the
		// benchmark's spans.
		err := writeFile(w.traceOut, func(f io.Writer) error { return dist.WriteTrace(w.fleet, f) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: dist trace: %v\n", err)
		}
	}
	w.stop()
}

func (w *sweepsWorkload) sweep(tr *tracer) {
	w.tables = append(w.tables[:0],
		w.runTable(tr, "E7", func() *experiments.Table { return experiments.E7(false) }),
		w.runTable(tr, "E12", experiments.E12),
		w.runTable(tr, "E17", func() *experiments.Table { return experiments.E17(false) }))
}

func (w *sweepsWorkload) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, t := range w.tables {
		h.Write([]byte(t.Markdown()))
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func (w *sweepsWorkload) check() error {
	for _, t := range w.tables {
		if len(t.Failed) > 0 {
			return fmt.Errorf("%s: %d checks failed, first: %s", t.ID, len(t.Failed), t.Failed[0])
		}
	}
	if w.digest() != w.first {
		return fmt.Errorf("sweep output differs from the first op's")
	}
	return nil
}
