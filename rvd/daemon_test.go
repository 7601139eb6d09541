package rvd

// The crash-safety differential harness: one fixed sweep, executed
// through every failure mode the daemon promises to survive, must come
// out byte-identical every time —
//
//	cold run            fresh store, everything executed
//	warm run            same daemon, everything a cache hit
//	bit-flipped entry   one store entry corrupted, quarantined, recomputed
//	kill -9 + resubmit  scheduler halted dead mid-sweep, reopened, the
//	                    sweep submitted again
//
// — with the cache-hit/executed counters asserting the structural claim:
// a resubmission after a crash re-executes NO stored shard.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dist"
	"repro/graph"
)

// fixedSweep builds the harness's deterministic sweep: a handful of
// shards over mixed graphs, case kinds, and programs, each shard keyed
// so outputs are small but non-trivial.
func fixedSweep(t *testing.T) [][]byte {
	t.Helper()
	p := &dist.Planner{}
	graphs := []*graph.Graph{
		graph.Cycle(5),
		graph.Path(4),
		graph.Star(4),
		graph.Tree(graph.ChainShape(3)),
	}
	for gi, g := range graphs {
		for flavor := 0; flavor < 2; flavor++ {
			key := [2]int{gi, flavor}
			c := dist.CaseDesc{
				Kind:   dist.KindTwoAgent,
				ProgA:  dist.ProgDesc{Name: "universal"},
				ProgB:  dist.ProgDesc{Name: "randomwalk", Args: []uint64{uint64(500 + 7*gi)}},
				U:      0,
				V:      g.N() - 1,
				Delay:  uint64(3 * flavor),
				Budget: 400,
			}
			p.Add(key, g, c)
			c2 := dist.CaseDesc{
				Kind: dist.KindMulti,
				Agents: []dist.AgentDesc{
					{Prog: dist.ProgDesc{Name: "doubling", Args: []uint64{3, 1}}, Start: 0},
					{Prog: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{uint64(510 + gi)}}, Start: 1, Appear: 2},
				},
				StopOnGather: true,
				Budget:       400,
			}
			p.Add(key, g, c2)
			p.SetSeedRange(key, 500, 530)
		}
	}
	shards := p.Shards()
	if len(shards) < 6 {
		t.Fatalf("fixed sweep built only %d shards", len(shards))
	}
	raw := make([][]byte, len(shards))
	for i, sh := range shards {
		raw[i] = sh.Encode()
	}
	return raw
}

// referenceBytes computes the sweep's expected output through a plain
// dist backend, no daemon anywhere: the concatenated canonical result
// encodings in shard order.
func referenceBytes(t *testing.T, shards [][]byte) []byte {
	t.Helper()
	be := dist.NewInProcess(2)
	defer be.Close()
	results, err := be.Run(decodeShards(t, shards))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, r := range results {
		out = r.AppendEncode(out)
	}
	return out
}

// jobBytes reads a completed job's output from the daemon's store: the
// concatenated result encodings in shard order — the same spelling
// referenceBytes uses.
func jobBytes(t *testing.T, d *Daemon, job *Job) []byte {
	t.Helper()
	var out []byte
	for i, k := range job.Keys() {
		value, ok := d.Store().Get(k)
		if !ok {
			t.Fatalf("shard %d result missing from store", i)
		}
		out = append(out, value...)
	}
	return out
}

// noticeHandler is a slog.Handler that records each notice's message and
// echoes it to the test log.
type noticeHandler struct {
	t    *testing.T
	mu   sync.Mutex
	msgs []string
}

func (h *noticeHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *noticeHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *noticeHandler) WithGroup(string) slog.Handler            { return h }

func (h *noticeHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.msgs = append(h.msgs, r.Message)
	h.mu.Unlock()
	h.t.Log(r.Message)
	return nil
}

// testLog returns a daemon logger that echoes every notice to t's log.
func testLog(t *testing.T) *slog.Logger { return slog.New(&noticeHandler{t: t}) }

func openTestDaemon(t *testing.T, dir string, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Dir:          dir,
		Backend:      dist.NewInProcess(2),
		VersionStamp: "test proto=3 registry=1",
		BatchShards:  3, // several batches per sweep: crash points land mid-job
		Log:          testLog(t),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Close()
		cfg.Backend.Close()
	})
	return d
}

func submitWait(t *testing.T, d *Daemon, shards [][]byte) (*Job, JobStatus) {
	t.Helper()
	job, err := d.Submit(shards)
	if err != nil {
		t.Fatal(err)
	}
	st := job.Wait()
	if st.State != JobDone {
		t.Fatalf("job %d finished %v (err %q)", st.ID, st.State, st.Err)
	}
	return job, st
}

func TestDaemonDifferential(t *testing.T) {
	shards := fixedSweep(t)
	ref := referenceBytes(t, shards)
	n := len(shards)

	// --- Cold run: empty store, every shard executed. ---
	dirA := t.TempDir()
	dA := openTestDaemon(t, dirA, nil)
	jobCold, stCold := submitWait(t, dA, shards)
	if got := jobBytes(t, dA, jobCold); !bytes.Equal(got, ref) {
		t.Fatal("cold run output differs from reference")
	}
	if stCold.CacheHits != 0 || stCold.Executed != n {
		t.Fatalf("cold run: %d hits / %d executed, want 0 / %d", stCold.CacheHits, stCold.Executed, n)
	}

	// --- Warm run: same daemon, 100%% cache hits, zero executions. ---
	jobWarm, stWarm := submitWait(t, dA, shards)
	if got := jobBytes(t, dA, jobWarm); !bytes.Equal(got, ref) {
		t.Fatal("warm run output differs from reference")
	}
	if stWarm.CacheHits != n || stWarm.Executed != 0 {
		t.Fatalf("warm run: %d hits / %d executed, want %d / 0", stWarm.CacheHits, stWarm.Executed, n)
	}

	// --- Bit-flipped cache entry: quarantined, recomputed, identical. ---
	flipKey := jobWarm.Keys()[2]
	path := filepath.Join(dirA, "store", flipKey.String()+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	jobFlip, stFlip := submitWait(t, dA, shards)
	if got := jobBytes(t, dA, jobFlip); !bytes.Equal(got, ref) {
		t.Fatal("bit-flip run output differs from reference")
	}
	if stFlip.Executed != 1 || stFlip.CacheHits != n-1 {
		t.Fatalf("bit-flip run: %d hits / %d executed, want %d / 1", stFlip.CacheHits, stFlip.Executed, n-1)
	}
	if q := dA.Store().Quarantined(); q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}

	// --- kill -9 mid-sweep + restart + resubmit. ---
	const crashAfter = 4
	dirB := t.TempDir()
	beB := dist.NewInProcess(2)
	dB, err := Open(Config{
		Dir: dirB, Backend: beB, VersionStamp: "test proto=3 registry=1",
		BatchShards: 3, Log: testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	dB.crashAfterStores = crashAfter
	jobCrash, err := dB.Submit(shards)
	if err != nil {
		t.Fatal(err)
	}
	<-dB.crashed // the scheduler halted dead: no state change, no cleanup
	if done := jobCrash.completedCount(); done != crashAfter {
		t.Fatalf("crashed after %d completions, want %d", done, crashAfter)
	}
	dB.Close()
	beB.Close()

	// Reopen the same state dir and submit the sweep again: the store
	// answers the shards stored before the crash, under a new job id.
	dB2 := openTestDaemon(t, dirB, nil)
	if _, ok := dB2.JobByID(jobCrash.ID); ok {
		t.Fatalf("crashed job %d survived the restart", jobCrash.ID)
	}
	jobAgain, stAgain := submitWait(t, dB2, shards)
	if jobAgain.ID == jobCrash.ID {
		t.Fatalf("resubmission reused the crashed job's id %d", jobCrash.ID)
	}
	if got := jobBytes(t, dB2, jobAgain); !bytes.Equal(got, ref) {
		t.Fatal("resubmitted run output differs from reference")
	}
	// The structural claim: every shard stored before the crash is a
	// cache hit; the resubmission re-executes none of them.
	if stAgain.CacheHits != crashAfter || stAgain.Executed != n-crashAfter {
		t.Fatalf("resubmitted run: %d hits / %d executed, want %d / %d",
			stAgain.CacheHits, stAgain.Executed, crashAfter, n-crashAfter)
	}
}

// TestDaemonConcurrentJobsDedup pins the multiplexing contract: two
// overlapping sweeps submitted together both complete with correct
// bytes, and their shared shards execute exactly once.
func TestDaemonConcurrentJobsDedup(t *testing.T) {
	shards := fixedSweep(t)
	ref := referenceBytes(t, shards)
	n := len(shards)
	d := openTestDaemon(t, t.TempDir(), nil)

	// Job 2 is job 1's first half — fully contained.
	half := shards[:n/2]
	job1, err := d.Submit(shards)
	if err != nil {
		t.Fatal(err)
	}
	job2, err := d.Submit(half)
	if err != nil {
		t.Fatal(err)
	}
	st1, st2 := job1.Wait(), job2.Wait()
	if st1.State != JobDone || st2.State != JobDone {
		t.Fatalf("jobs finished %v / %v", st1.State, st2.State)
	}
	if got := jobBytes(t, d, job1); !bytes.Equal(got, ref) {
		t.Fatal("job 1 output differs from reference")
	}
	if got := jobBytes(t, d, job2); !bytes.Equal(got, jobBytes(t, d, job1)[:len(got)]) {
		t.Fatal("job 2 output differs from job 1's prefix")
	}
	// Shared shards executed once: total executions across the daemon
	// equal the number of DISTINCT shards, not the sum of job sizes.
	stats := d.Stats()
	if stats.Executed != n {
		t.Fatalf("daemon executed %d shards for overlapping jobs, want %d distinct", stats.Executed, n)
	}
	if stats.CacheHits != st1.CacheHits+st2.CacheHits {
		t.Fatalf("stats hits %d != job hits %d+%d", stats.CacheHits, st1.CacheHits, st2.CacheHits)
	}
}

// TestDaemonAdmissionControl pins load shedding: a submission past the
// queue bound is refused with ErrOverloaded and a Retry-After hint, and
// leaves no job behind.
func TestDaemonAdmissionControl(t *testing.T) {
	shards := fixedSweep(t)
	d := openTestDaemon(t, t.TempDir(), func(cfg *Config) {
		cfg.QueueBound = len(shards) - 1
	})
	_, err := d.Submit(shards)
	over, ok := err.(*ErrOverloaded)
	if !ok {
		t.Fatalf("Submit past the bound returned %v, want *ErrOverloaded", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatal("ErrOverloaded without a Retry-After hint")
	}
	if got := len(d.jobs); got != 0 {
		t.Fatalf("shed submission left %d jobs behind", got)
	}
}

// TestDaemonRejectsCorruptShard pins input hardening end to end: bytes
// that fail the dist codec never reach the queue or the fleet.
func TestDaemonRejectsCorruptShard(t *testing.T) {
	d := openTestDaemon(t, t.TempDir(), nil)
	if _, err := d.Submit([][]byte{{0xFF, 0xFF, 0xFF}}); err == nil {
		t.Fatal("corrupt shard accepted")
	}
	if _, err := d.Submit(nil); err == nil {
		t.Fatal("empty job accepted")
	}
}

// TestDaemonSuspendOnClose pins graceful shutdown: an unfinished job's
// watchers observe JobSuspended, no job outlives the daemon, and a
// resubmission after reopen is served from every entry stored before.
func TestDaemonSuspendOnClose(t *testing.T) {
	shards := fixedSweep(t)
	dir := t.TempDir()
	be := dist.NewInProcess(2)
	d, err := Open(Config{
		Dir: dir, Backend: be, VersionStamp: "test proto=3 registry=1",
		BatchShards: 2, Log: testLog(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Submit and close at once: the job may be partially done, but must
	// come out Done or Suspended, never hanging.
	job, err := d.Submit(shards)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	be.Close()
	st := job.Status()
	if st.State != JobDone && st.State != JobSuspended {
		t.Fatalf("after Close: job state %v", st.State)
	}
	if _, err := d.Submit(shards); err != ErrClosed {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	stored := d.Stats().StoreEntries

	d2 := openTestDaemon(t, dir, nil)
	if _, ok := d2.JobByID(job.ID); ok {
		t.Fatalf("job %d outlived its daemon", job.ID)
	}
	_, st2 := submitWait(t, d2, shards)
	if st2.CacheHits != stored || st2.Executed != len(shards)-stored {
		t.Fatalf("resubmission: %d hits / %d executed, want %d / %d",
			st2.CacheHits, st2.Executed, stored, len(shards)-stored)
	}
}

// closeGateBackend holds each batch until the daemon's Close has begun.
type closeGateBackend struct {
	dist.Backend
	d       *Daemon
	entered chan struct{} // closed when the batch reaches Run
}

func (b *closeGateBackend) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	close(b.entered)
	b.d.mu.Lock()
	for !b.d.closing {
		b.d.cond.Wait()
	}
	b.d.mu.Unlock()
	return b.Backend.Run(shards)
}

// TestDaemonCloseAfterLastBatchEndsDone pins that shutdown never suspends
// a job whose every shard is stored: the job's one batch is held in the
// backend until Close has begun, and the results stored after that still
// finish the job as Done.
func TestDaemonCloseAfterLastBatchEndsDone(t *testing.T) {
	shards := fixedSweep(t)
	gate := &closeGateBackend{Backend: dist.NewInProcess(2), entered: make(chan struct{})}
	d := openTestDaemon(t, t.TempDir(), func(cfg *Config) {
		cfg.Backend = gate
		cfg.BatchShards = len(shards)
	})
	gate.d = d
	job, err := d.Submit(shards)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	d.Close()
	if st := job.Status(); st.State != JobDone || st.Executed != len(shards) {
		t.Fatalf("after Close: %+v, want Done with %d shards executed", st, len(shards))
	}
}

// TestVersionStampPartitionsCache pins the registry-stamp satellite: the
// same shards under a bumped stamp share nothing with the old cache.
func TestVersionStampPartitionsCache(t *testing.T) {
	shards := fixedSweep(t)
	dir := t.TempDir()
	d1 := openTestDaemon(t, dir, nil)
	_, st1 := submitWait(t, d1, shards)
	if st1.Executed != len(shards) {
		t.Fatalf("cold run executed %d, want %d", st1.Executed, len(shards))
	}
	d1.Close()

	d2 := openTestDaemon(t, dir, func(cfg *Config) {
		cfg.VersionStamp = "test proto=3 registry=2"
	})
	_, st2 := submitWait(t, d2, shards)
	if st2.CacheHits != 0 || st2.Executed != len(shards) {
		t.Fatalf("bumped stamp run: %d hits / %d executed, want 0 / %d",
			st2.CacheHits, st2.Executed, len(shards))
	}
}

// journalV1 is a job journal as earlier versions of rvd wrote it to
// Dir/journal.wal: the "rvdj1" header, submit records for jobs 3 and 4,
// and a done record for job 3.
const journalV1 = "7276646a310a110103020773686172642d61016267d1311e0f0104010773" +
	"686172642d63202e9eeb060203328e7b5e"

// TestOpenRemovesLeftoverJournal pins the upgrade path from a state dir
// that still holds a job journal: Open deletes the file, says so in one
// notice, resumes none of its jobs, and serves a new job.
func TestOpenRemovesLeftoverJournal(t *testing.T) {
	old, err := hex.DecodeString(journalV1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wal := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(wal, old, 0o644); err != nil {
		t.Fatal(err)
	}
	notices := &noticeHandler{t: t}
	d := openTestDaemon(t, dir, func(cfg *Config) { cfg.Log = slog.New(notices) })
	if _, err := os.Stat(wal); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("journal.wal after Open: %v", err)
	}
	notices.mu.Lock()
	var named []string
	for _, n := range notices.msgs {
		if strings.Contains(n, wal) {
			named = append(named, n)
		}
	}
	notices.mu.Unlock()
	if len(named) != 1 {
		t.Fatalf("%d notices name %s, want 1: %q", len(named), wal, named)
	}
	if st := d.Stats(); st.Jobs != 0 {
		t.Fatalf("Open resumed %d journaled jobs", st.Jobs)
	}
	shards := fixedSweep(t)
	job, _ := submitWait(t, d, shards)
	if got := jobBytes(t, d, job); !bytes.Equal(got, referenceBytes(t, shards)) {
		t.Fatal("job output differs from reference")
	}
}

// TestJobIDsFreshAcrossRestarts pins that job ids never repeat across
// restarts of one state dir, even when a boot in between submits
// nothing: three boots, and the ids they issue strictly increase.
func TestJobIDsFreshAcrossRestarts(t *testing.T) {
	shards := fixedSweep(t)[:1]
	dir := t.TempDir()
	var ids []uint64
	for boot := 0; boot < 3; boot++ {
		be := dist.NewInProcess(1)
		d, err := Open(Config{Dir: dir, Backend: be, Log: testLog(t)})
		if err != nil {
			t.Fatal(err)
		}
		if boot != 1 {
			for i := 0; i < 2; i++ {
				job, err := d.Submit(shards)
				if err != nil {
					t.Fatal(err)
				}
				if st := job.Wait(); st.State != JobDone {
					t.Fatalf("boot %d: job finished %v", boot, st.State)
				}
				ids = append(ids, job.ID)
			}
		}
		d.Close()
		be.Close()
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("job ids %v do not strictly increase across restarts", ids)
		}
	}
}

// Wait blocks until the job reaches a terminal state and returns the
// final status.
func (job *Job) Wait() JobStatus {
	job.mu.Lock()
	for !job.terminal() {
		job.cond.Wait()
	}
	job.mu.Unlock()
	return job.Status()
}

// Keys returns the job's per-shard cache keys in submission order.
func (job *Job) Keys() []Key { return job.keys }

// completedCount returns how many of the job's shards have completed.
func (job *Job) completedCount() int {
	job.mu.Lock()
	defer job.mu.Unlock()
	return len(job.events)
}

// Store exposes the daemon's result store.
func (d *Daemon) Store() *Store { return d.store }

// flakyBackend runs its first ok batches on the wrapped backend and
// fails every batch after them, as a fleet that died mid-job would.
// The daemon's one scheduler goroutine makes every Run call.
type flakyBackend struct {
	dist.Backend
	ok int
}

func (b *flakyBackend) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	if b.ok == 0 {
		return nil, errors.New("fleet down")
	}
	b.ok--
	return b.Backend.Run(shards)
}

// heldResults counts the job's events that still hold result bytes.
func heldResults(job *Job) int {
	job.mu.Lock()
	defer job.mu.Unlock()
	held := 0
	for _, ev := range job.events {
		if ev.result != nil {
			held++
		}
	}
	return held
}

// onlyJob returns the daemon's one job.
func onlyJob(t *testing.T, d *Daemon) *Job {
	t.Helper()
	jobs := d.JobStatuses()
	if len(jobs) != 1 {
		t.Fatalf("daemon holds %d jobs, want 1", len(jobs))
	}
	job, _ := d.JobByID(jobs[0].ID)
	return job
}

// TestFinishedJobDropsShards pins what a finished job keeps: a job that
// ends Done and one that ends Failed after its first batch both drop
// their decoded descriptors and hold no result bytes, and their status,
// events stream (each completed shard with its cache key) and trace still
// answer in full. A job submitted in one exchange holds result bytes only
// while its stream is attached: none once Client.Run returns, and none
// once a client that hangs up at the first frame is gone, and that job
// still ends Done.
func TestFinishedJobDropsShards(t *testing.T) {
	shards := fixedSweep(t)
	for _, tc := range []struct {
		state     JobState
		ok        int // batches the backend runs before it fails
		completed int
	}{
		{JobDone, len(shards), len(shards)},
		{JobFailed, 1, 3},
	} {
		t.Run(tc.state.String(), func(t *testing.T) {
			d := openTestDaemon(t, t.TempDir(), func(cfg *Config) {
				cfg.Backend = &flakyBackend{Backend: cfg.Backend, ok: tc.ok}
			})
			job, err := d.Submit(shards)
			if err != nil {
				t.Fatal(err)
			}
			st := job.Wait()
			if st.State != tc.state || st.Shards != len(shards) || st.Completed != tc.completed {
				t.Fatalf("status %+v, want %v with %d of %d shards complete", st, tc.state, tc.completed, len(shards))
			}
			if job.shards != nil {
				t.Fatalf("%v job keeps its %d shard descriptors", st.State, len(job.shards))
			}
			if held := heldResults(job); held != 0 {
				t.Fatalf("%v job holds the result bytes of %d shards", st.State, held)
			}

			srv := httptest.NewServer(d.Handler())
			defer srv.Close()
			get := func(path string) *http.Response {
				t.Helper()
				resp, err := http.Get(srv.URL + "/v1/sweeps/" + itoa(job.ID) + path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { resp.Body.Close() })
				return resp
			}

			var status statusResponse
			if err := json.NewDecoder(get("").Body).Decode(&status); err != nil {
				t.Fatal(err)
			}
			if status.State != tc.state.String() || status.Shards != len(shards) || status.Completed != tc.completed {
				t.Fatalf("GET status: %+v", status)
			}

			dec := json.NewDecoder(get("/events").Body)
			for i := 0; ; i++ {
				var line eventLine
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("events line %d: %v", i, err)
				}
				if line.State != "" {
					if line.State != tc.state.String() || i != tc.completed {
						t.Fatalf("terminal line %+v after %d shard lines, want %v after %d", line, i, tc.state, tc.completed)
					}
					break
				}
				if line.Shard == nil || *line.Shard < 0 || *line.Shard >= len(shards) || line.Key != job.keys[*line.Shard].String() {
					t.Fatalf("events line %d: %+v does not name a shard of the job by its key", i, line)
				}
			}

			var trace struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.NewDecoder(get("/trace").Body).Decode(&trace); err != nil {
				t.Fatal(err)
			}
			names := map[string]int{}
			for _, ev := range trace.TraceEvents {
				names[ev.Name+"/"+ev.Ph]++
			}
			want := map[string]int{"submit/i": 1, "activate/i": 1, tc.state.String() + "/i": 1,
				"dispatch/i": names["dispatch/i"], "shard/X": tc.completed}
			if names["dispatch/i"] < tc.completed || !maps.Equal(names, want) {
				t.Fatalf("trace events %v, want %v with at least %d dispatches", names, want, tc.completed)
			}
		})
	}

	t.Run("streamed", func(t *testing.T) {
		d := openTestDaemon(t, t.TempDir(), nil)
		srv := httptest.NewServer(d.Handler())
		defer srv.Close()
		if _, err := (&Client{BaseURL: srv.URL}).Run(decodeShards(t, shards)); err != nil {
			t.Fatal(err)
		}
		if held := heldResults(onlyJob(t, d)); held != 0 {
			t.Fatalf("after Client.Run the job holds the result bytes of %d shards", held)
		}
	})
	t.Run("stream cut", func(t *testing.T) {
		d := openTestDaemon(t, t.TempDir(), nil)
		srv := httptest.NewServer(d.Handler())
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/octet-stream", bytes.NewReader(frames(t, shards...)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dist.ReadFrameSum(bufio.NewReader(resp.Body), nil); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() // hang up at the first frame
		job := onlyJob(t, d)
		if st := job.Wait(); st.State != JobDone || st.Completed != len(shards) {
			t.Fatalf("job whose stream was cut: %+v, want Done with %d shards", st, len(shards))
		}
		srv.Close() // returns once the stream's handler has
		if held := heldResults(job); held != 0 {
			t.Fatalf("after its stream was cut the job holds the result bytes of %d shards", held)
		}
	})
}

// stepGate announces each batch it starts on entered, then holds the
// first until release is closed and every later one until the daemon's
// Close has begun.
type stepGate struct {
	dist.Backend
	d                *Daemon
	entered, release chan struct{}
	started          atomic.Int32
}

func (b *stepGate) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	select {
	case b.entered <- struct{}{}:
	default: // a batch the test does not wait for
	}
	if b.started.Add(1) == 1 {
		<-b.release
		return b.Backend.Run(shards)
	}
	b.d.mu.Lock()
	for !b.d.closing {
		b.d.cond.Wait()
	}
	b.d.mu.Unlock()
	return b.Backend.Run(shards)
}

// TestCloseEndsStreamsSuspended pins the shutdown order cmd/rvd uses. Job
// A's stream is attached and has sent the frame of A's first batch; the
// batch in flight is job B's. Close returns once that batch is stored and
// starts no other; an http.Server.Shutdown after it finds no stream to
// wait for, though nothing but the suspension woke A's stream; and that
// stream's last frame says suspended.
func TestCloseEndsStreamsSuspended(t *testing.T) {
	shards := fixedSweep(t)
	gate := &stepGate{Backend: dist.NewInProcess(2), entered: make(chan struct{}, 2), release: make(chan struct{})}
	d := openTestDaemon(t, t.TempDir(), func(cfg *Config) {
		cfg.Backend = gate
		cfg.BatchShards = 1
	})
	gate.d = d
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer srv.CloseClientConnections() // first: a stream left open must not hang Close

	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/octet-stream", bytes.NewReader(frames(t, shards[:4]...)))
		replies <- reply{resp, err}
	}()
	<-gate.entered // A's first shard
	if _, err := d.Submit(shards[4:]); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	r := <-replies // the headers arrive with the flush after A's first frame
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()
	<-gate.entered // B's first shard: the round robin's next turn
	d.Close()
	if n := gate.started.Load(); n != 2 {
		t.Fatalf("%d batches started, want 2: A's and the one in flight at Close", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(ctx); err != nil {
		t.Fatalf("http.Server.Shutdown after Close: %v", err)
	}
	js, err := readJobStream(r.resp.Body, 4)
	if err != nil {
		t.Fatal(err)
	}
	if js.state != JobSuspended || len(js.shards) != 1 {
		t.Fatalf("A's stream ended %v after %d shard frames, want suspended after 1", js.state, len(js.shards))
	}
}

// TestFinishedJobsBounded pins the finished-job bound: of 300 jobs on one
// daemon it keeps the last maxFinishedJobs, a query for an evicted id
// answers 410 Gone, and one for an id never issued 404.
func TestFinishedJobsBounded(t *testing.T) {
	shard := fixedSweep(t)[:1]
	d := openTestDaemon(t, t.TempDir(), func(cfg *Config) { cfg.Log = nil })
	var first, last *Job
	for i := 0; i < 300; i++ {
		job, _ := submitWait(t, d, shard)
		if first == nil {
			first = job
		}
		last = job
	}
	if st := d.Stats(); st.Jobs != maxFinishedJobs {
		t.Fatalf("daemon keeps %d finished jobs, want %d", st.Jobs, maxFinishedJobs)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		path string
		want int
	}{
		{itoa(first.ID), http.StatusGone},
		{itoa(first.ID) + "/events", http.StatusGone},
		{itoa(first.ID) + "/trace", http.StatusGone},
		{itoa(last.ID), http.StatusOK},
		{itoa(first.ID - 1), http.StatusNotFound},
		{itoa(last.ID + 1), http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/sweeps/%s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}
