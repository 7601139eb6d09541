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
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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
	descs := make([]*dist.ShardDesc, len(shards))
	for i, raw := range shards {
		descs[i] = new(dist.ShardDesc)
		if err := descs[i].Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	results, err := be.Run(descs)
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

func openTestDaemon(t *testing.T, dir string, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Dir:          dir,
		Backend:      dist.NewInProcess(2),
		VersionStamp: "test proto=3 registry=1",
		BatchShards:  3, // several batches per sweep: crash points land mid-job
		Logf:         t.Logf,
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
		BatchShards: 3, Logf: t.Logf,
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
		BatchShards: 2, Logf: t.Logf,
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
	var mu sync.Mutex
	var notices []string
	d := openTestDaemon(t, dir, func(cfg *Config) {
		cfg.Logf = func(format string, args ...any) {
			mu.Lock()
			notices = append(notices, fmt.Sprintf(format, args...))
			mu.Unlock()
			t.Logf(format, args...)
		}
	})
	if _, err := os.Stat(wal); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("journal.wal after Open: %v", err)
	}
	mu.Lock()
	var named []string
	for _, n := range notices {
		if strings.Contains(n, wal) {
			named = append(named, n)
		}
	}
	mu.Unlock()
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
		d, err := Open(Config{Dir: dir, Backend: be, Logf: t.Logf})
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
