package rvd

// The crash-safety differential harness: one fixed sweep, executed
// through every failure mode the daemon promises to survive, must come
// out byte-identical every time —
//
//	cold run          fresh store, everything executed
//	warm run          same daemon, everything a cache hit
//	kill -9 + resume  scheduler halted dead mid-sweep, reopened, resumed
//	truncated journal the WAL cut mid-frame, recovered, resubmitted
//	bit-flipped entry one store entry corrupted, quarantined, recomputed
//
// — with the cache-hit/executed counters asserting the structural claim:
// a resumed run re-executes NO completed shard.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

	// --- kill -9 mid-sweep + restart + resume. ---
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
	<-dB.crashed // the scheduler halted dead: no done record, no cleanup
	if done := jobCrash.completedCount(); done != crashAfter {
		t.Fatalf("crashed after %d completions, want %d", done, crashAfter)
	}
	dB.Close()
	beB.Close()

	// Reopen the same state dir: the journal resumes the job under its
	// original id, the store answers its completed shards.
	dB2 := openTestDaemon(t, dirB, nil)
	jobResumed, ok := dB2.JobByID(jobCrash.ID)
	if !ok {
		t.Fatalf("job %d not resumed from journal", jobCrash.ID)
	}
	stResumed := jobResumed.Wait()
	if stResumed.State != JobDone {
		t.Fatalf("resumed job finished %v (err %q)", stResumed.State, stResumed.Err)
	}
	if got := jobBytes(t, dB2, jobResumed); !bytes.Equal(got, ref) {
		t.Fatal("resumed run output differs from reference")
	}
	// The structural claim: every shard completed before the crash is a
	// cache hit; the resumed run re-executes none of them.
	if stResumed.CacheHits != crashAfter || stResumed.Executed != n-crashAfter {
		t.Fatalf("resumed run: %d hits / %d executed, want %d / %d",
			stResumed.CacheHits, stResumed.Executed, crashAfter, n-crashAfter)
	}

	// --- Journal truncated mid-frame. ---
	// Crash a fresh daemon mid-sweep, then cut its journal mid-frame —
	// the submit record itself is damaged. Recovery must come up clean
	// with zero jobs, and a resubmission must reuse the crash-survivor
	// store entries and still produce identical bytes.
	dirC := t.TempDir()
	beC := dist.NewInProcess(2)
	dC, err := Open(Config{
		Dir: dirC, Backend: beC, VersionStamp: "test proto=3 registry=1",
		BatchShards: 3, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	dC.crashAfterStores = 2
	if _, err := dC.Submit(shards); err != nil {
		t.Fatal(err)
	}
	<-dC.crashed
	dC.Close()
	beC.Close()
	jpath := filepath.Join(dirC, "journal.wal")
	jraw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(jraw) <= len(journalHeader)+10 {
		t.Fatalf("journal unexpectedly small: %d bytes", len(jraw))
	}
	if err := os.WriteFile(jpath, jraw[:len(jraw)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	dC2 := openTestDaemon(t, dirC, nil)
	if got := len(dC2.jobs); got != 0 {
		t.Fatalf("truncated journal replayed %d jobs, want 0", got)
	}
	jobTrunc, stTrunc := submitWait(t, dC2, shards)
	if got := jobBytes(t, dC2, jobTrunc); !bytes.Equal(got, ref) {
		t.Fatal("truncated-journal run output differs from reference")
	}
	if stTrunc.CacheHits != 2 || stTrunc.Executed != n-2 {
		t.Fatalf("truncated-journal run: %d hits / %d executed, want 2 / %d",
			stTrunc.CacheHits, stTrunc.Executed, n-2)
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
// nothing about it is journaled.
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
// that fail the dist codec never reach the journal or the fleet.
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
// watchers observe JobSuspended, and the job resumes on reopen.
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
	// Stop the scheduler before it can start, so the job is pending
	// when Close runs. Easiest deterministic path: close first, then
	// observe a pre-closed Submit refusal; instead submit and close
	// immediately — the job may be partially done, but must come out
	// Done or Suspended, never lost.
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

	// Reopen: if the job did not finish, it must resume and finish now.
	d2 := openTestDaemon(t, dir, nil)
	if st.State == JobSuspended {
		resumed, ok := d2.JobByID(job.ID)
		if !ok {
			t.Fatalf("suspended job %d not resumed", job.ID)
		}
		if st2 := resumed.Wait(); st2.State != JobDone {
			t.Fatalf("resumed job finished %v", st2.State)
		}
	} else if _, ok := d2.JobByID(job.ID); ok {
		t.Fatalf("completed job %d replayed as incomplete", job.ID)
	}
	// Either way every shard's result is in the store.
	for i, k := range job.Keys() {
		if !d2.Store().Contains(k) {
			t.Fatalf("shard %d missing from store after reopen", i)
		}
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

// e17ShardV3 is E17's single shard as a wire-protocol-v3 binary encoded
// it: v3 descriptors also carried a graph spec, a parameter block and
// warmup hints, so the current decoder rejects these bytes.
const e17ShardV3 = "001b2320706174682d330a330a312f300a302f3020322f300a312f310a000000" +
	"0300010101e0c5aa030309756e6976657273616c00000009756e6976657273616c" +
	"00010009756e6976657273616c0002010000"

// TestOpenDropsOldProtocolJob pins Open's version-skew branch: a state
// dir written before a protocol bump journals a job whose shard no
// longer decodes. Open must drop that job with a notice, resume the
// current job beside it, and compact the journal down to the current
// job's records alone.
func TestOpenDropsOldProtocolJob(t *testing.T) {
	old, err := hex.DecodeString(e17ShardV3)
	if err != nil || len(old) != 83 {
		t.Fatalf("v3 shard literal: %d bytes, %v", len(old), err)
	}
	var sh dist.ShardDesc
	if err := sh.Decode(old); err == nil {
		t.Fatal("v3 shard decodes under the current protocol")
	}
	shards := fixedSweep(t)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	jl, _, err := OpenJournal(jpath, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*Record{
		{Type: recSubmit, JobID: 1, Shards: [][]byte{old}},
		{Type: recSubmit, JobID: 2, Shards: shards},
	} {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

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
	mu.Lock()
	logged := strings.Join(notices, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "dropping journaled job 1") {
		t.Fatalf("no drop notice for the v3 job; log:\n%s", logged)
	}
	if _, ok := d.JobByID(1); ok {
		t.Fatal("v3 job resumed")
	}
	job, ok := d.JobByID(2)
	if !ok {
		t.Fatal("current job not resumed")
	}
	if st := job.Wait(); st.State != JobDone {
		t.Fatalf("resumed job finished %v (err %q)", st.State, st.Err)
	}
	if got := jobBytes(t, d, job); !bytes.Equal(got, referenceBytes(t, shards)) {
		t.Fatal("resumed job output differs from reference")
	}

	// Open compacted job 1 away; since then the scheduler has only
	// appended job 2's done record.
	d.Close()
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := decodeJournal(raw[len(journalHeader):])
	var got []string
	for _, rec := range recs {
		got = append(got, fmt.Sprintf("type %d job %d", rec.Type, rec.JobID))
	}
	if want := []string{"type 1 job 2", "type 2 job 2"}; !slices.Equal(got, want) {
		t.Fatalf("journal after compaction holds %q, want job 2's submit and done %q", got, want)
	}
	if len(recs[0].Shards) != len(shards) {
		t.Fatalf("compacted submit record holds %d shards, want %d", len(recs[0].Shards), len(shards))
	}
	for i := range shards {
		if !bytes.Equal(recs[0].Shards[i], shards[i]) {
			t.Fatalf("compacted submit record changed shard %d", i)
		}
	}
}
