package rvd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/dist"
	"repro/internal/obs"
)

// JobState is a job's position in its lifecycle (see doc.go): Queued →
// Running → Done/Failed, with Suspended the state a still-incomplete
// job's watchers observe while the daemon shuts down. A suspended job
// does not resume; its submitter resubmits after the restart, and the
// store answers every shard already stored.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobSuspended
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return "suspended"
	}
}

// Event is one per-shard completion: the shard's index in the job's
// submission order and whether it was served from the store (Cache) or
// freshly executed this daemon lifetime. Result bytes are not retained
// in memory — watchers read them back from the store by key.
type Event struct {
	Shard int
	Cache bool
}

// Job is one submitted sweep: an ordered list of shards, each
// content-addressed by its cache key. keys never changes after Submit,
// and len(keys) is the job's shard count. shards holds the decoded
// descriptors: only the scheduler reads them, and it drops them (nil)
// when the job ends Done or Failed, since it never dispatches a finished
// job again.
type Job struct {
	ID     uint64
	shards []*dist.ShardDesc
	keys   []Key

	// submittedAt anchors the queue-wait time; tl is the job's
	// lifecycle trace timeline (GET /v1/sweeps/{id}/trace): job-level
	// markers on track -1, per-shard dispatch instants, cache-hit
	// instants and execution spans on the shard-index track.
	submittedAt time.Time
	tl          *obs.Timeline

	mu        sync.Mutex
	cond      *sync.Cond
	state     JobState
	done      []bool
	events    []Event
	cacheHits int
	executed  int
	errMsg    string
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID        uint64
	State     JobState
	Shards    int
	Completed int
	CacheHits int
	Executed  int
	Err       string
}

// Status snapshots the job.
func (job *Job) Status() JobStatus {
	job.mu.Lock()
	defer job.mu.Unlock()
	return JobStatus{
		ID: job.ID, State: job.state, Shards: len(job.keys),
		Completed: len(job.events), CacheHits: job.cacheHits,
		Executed: job.executed, Err: job.errMsg,
	}
}

// terminal reports whether the job will produce no further events.
func (job *Job) terminal() bool {
	return job.state == JobDone || job.state == JobFailed || job.state == JobSuspended
}

// WriteTrace writes the job's lifecycle timeline as Chrome trace-event
// JSON (Perfetto-loadable); GET /v1/sweeps/{id}/trace serves it.
func (job *Job) WriteTrace(w io.Writer) error { return job.tl.WriteTrace(w) }

// Config configures a Daemon. Zero fields take the defaults.
type Config struct {
	// Dir is the daemon's durable state directory; Dir/store holds the
	// result cache, the only state that outlives a restart.
	Dir string

	// Backend executes shards the store cannot answer. The daemon
	// serializes its Run calls (the dist coordinator's contract); the
	// caller keeps ownership and closes it after Close.
	Backend dist.Backend

	// VersionStamp is folded into every cache key (see CacheKey). Bump
	// it whenever the shard codecs (dist.CodecVersion) or the program
	// registry change in a way that could alter any shard's results;
	// stale entries then become unreachable rather than wrong. Default
	// "rvd".
	VersionStamp string

	// QueueBound is the admission-control limit on unfinished shards
	// across all jobs: a Submit that would exceed it is shed with
	// ErrOverloaded (HTTP 503 + Retry-After). Default 4096.
	QueueBound int

	// BatchShards bounds how many shards one backend.Run call carries.
	// Smaller batches interleave concurrent jobs more fairly (the
	// round-robin dequeue picks one shard per job per turn); larger ones
	// amortize dispatch better. Default 16.
	BatchShards int

	// Log receives structured operational notices with levels (job
	// lifecycle, quarantines and leftover-state cleanup at Info,
	// per-batch dispatch at Debug, failures at Warn). Nil is silent.
	Log *slog.Logger
}

// logFunc resolves the rendered-line log sink the store uses: Log at
// Info, or nil for silent.
func (c Config) logFunc() func(format string, args ...any) {
	if c.Log == nil {
		return nil
	}
	log := c.Log
	return func(format string, args ...any) {
		log.Info(fmt.Sprintf(format, args...))
	}
}

func (c Config) withDefaults() Config {
	if c.VersionStamp == "" {
		c.VersionStamp = "rvd"
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 4096
	}
	if c.BatchShards <= 0 {
		c.BatchShards = 16
	}
	return c
}

// retryAfter is the backoff hint handed to shed submitters.
const retryAfter = time.Second

// ErrOverloaded is returned by Submit when admission control sheds the
// job; RetryAfter is the suggested backoff.
type ErrOverloaded struct {
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("rvd: queue full, retry after %v", e.RetryAfter)
}

// ErrClosed is returned by Submit once shutdown has begun.
var ErrClosed = errors.New("rvd: daemon shutting down")

// Daemon is the long-running rendezvous service: it owns a worker-fleet
// backend and a persistent result store, and multiplexes concurrent
// sweep jobs over the one fleet with per-job fair dequeue. The store is
// its only durable state: kill -9 at any instant costs only the shards
// not yet stored, and a resubmission of the same sweep recovers them.
type Daemon struct {
	cfg   Config
	store *Store

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[uint64]*Job
	queue     []*Job // submitted, not yet picked up by the scheduler
	active    []*Job // being worked; fair dequeue round-robins these
	nextID    uint64
	pending   int // unfinished shards across queue+active (admission control)
	rr        int // round-robin cursor over active
	closing   bool
	schedDone chan struct{}

	totalHits int
	totalExec int

	// crashAfterStores, when positive, simulates kill -9 for the crash
	// harness: the scheduler halts dead (no further stores, no state
	// transitions, no graceful anything) after that many store puts, and
	// crashed is closed. Test-only.
	crashAfterStores int
	crashed          chan struct{}
}

// Open opens the daemon's durable state under cfg.Dir — the store
// reloads its index, so every shard stored before a crash or restart
// answers as a cache hit — and starts the scheduler. No job survives a
// restart; submitters resubmit. The caller must eventually Close.
func Open(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("rvd: Config.Dir is required")
	}
	if cfg.Backend == nil {
		return nil, errors.New("rvd: Config.Backend is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("rvd: creating state dir: %w", err)
	}
	store, err := OpenStore(filepath.Join(cfg.Dir, "store"), cfg.logFunc())
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:   cfg,
		store: store,
		jobs:  map[uint64]*Job{},
		// Each boot numbers its jobs from the wall clock in microseconds,
		// so ids never repeat across restarts of one state dir (no boot
		// issues more than one job per microsecond) and stay below 2^53,
		// exact for JSON clients that read numbers as doubles.
		nextID:    uint64(time.Now().UnixMicro()),
		schedDone: make(chan struct{}),
		crashed:   make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	// Earlier versions kept a job journal beside the store and resumed
	// its unfinished jobs at Open. Nothing reads it now: delete it.
	wal := filepath.Join(cfg.Dir, "journal.wal")
	if err := os.Remove(wal); err == nil {
		d.logf("rvd: removed %s, a job journal from an earlier rvd; its unfinished jobs are not resumed (resubmit them: stored shards are cache hits)", wal)
	} else if !errors.Is(err, fs.ErrNotExist) {
		d.logf("rvd: removing %s: %v", wal, err)
	}
	obsQueueDepth.Set(0)
	go d.schedule()
	return d, nil
}

func (d *Daemon) logf(format string, args ...any) {
	d.slogf(slog.LevelInfo, format, args...)
}

// slogf routes one rendered notice at the given level to the structured
// logger, when one is configured.
func (d *Daemon) slogf(level slog.Level, format string, args ...any) {
	if d.cfg.Log != nil {
		d.cfg.Log.Log(context.Background(), level, fmt.Sprintf(format, args...))
	}
}

// buildJob decodes and canonicalizes raw shard encodings into a Job
// without an id.
func (d *Daemon) buildJob(raws [][]byte) (*Job, error) {
	if len(raws) == 0 {
		return nil, errors.New("rvd: job with no shards")
	}
	job := &Job{
		shards:      make([]*dist.ShardDesc, len(raws)),
		keys:        make([]Key, len(raws)),
		done:        make([]bool, len(raws)),
		submittedAt: time.Now(),
		tl:          obs.NewTimeline(jobTraceCap),
	}
	job.cond = sync.NewCond(&job.mu)
	for i, raw := range raws {
		sh := new(dist.ShardDesc)
		if err := sh.Decode(raw); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		// Re-encode: decode→encode is the canonical fixed point (pinned
		// by FuzzShardDecode), so equivalent submissions hash equal no
		// matter how their varints arrived.
		job.shards[i] = sh
		job.keys[i] = CacheKey(d.cfg.VersionStamp, sh.Encode())
	}
	return job, nil
}

// Submit accepts one sweep job: decode and canonicalize the shards, give
// the job an id, enqueue it, and return it. The job lives only in memory;
// a crash before it finishes costs only its shards not yet stored.
func (d *Daemon) Submit(shards [][]byte) (*Job, error) {
	job, err := d.buildJob(shards)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closing {
		return nil, ErrClosed
	}
	if d.pending+len(job.keys) > d.cfg.QueueBound {
		return nil, &ErrOverloaded{RetryAfter: retryAfter}
	}
	job.ID = d.nextID
	d.nextID++
	d.jobs[job.ID] = job
	d.queue = append(d.queue, job)
	d.pending += len(job.keys)
	obsJobsSubmitted.Inc()
	obsQueueDepth.Set(int64(d.pending))
	job.tl.Instant("submit", "job", -1, fmt.Sprintf("%d shards", len(job.keys)))
	d.cond.Broadcast()
	return job, nil
}

// JobByID looks a job up.
func (d *Daemon) JobByID(id uint64) (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	job, ok := d.jobs[id]
	return job, ok
}

// Stats is the daemon-wide counter snapshot.
type Stats struct {
	Jobs          int
	PendingShards int
	StoreEntries  int
	StoreBytes    int64 // size on disk of the indexed store entries
	Quarantined   int
	CacheHits     int // shards answered from the store, all jobs, this lifetime
	Executed      int // shards executed on the fleet, this lifetime
}

// Stats snapshots daemon-wide counters.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	st := Stats{
		Jobs:          len(d.jobs),
		PendingShards: d.pending,
		CacheHits:     d.totalHits,
		Executed:      d.totalExec,
	}
	d.mu.Unlock()
	st.StoreEntries = d.store.Len()
	st.StoreBytes = d.store.SizeBytes()
	st.Quarantined = d.store.Quarantined()
	return st
}

// JobStatuses snapshots every known job (including finished ones still
// queryable by id), sorted by id — the per-job exec-vs-hit split
// GET /v1/stats reports.
func (d *Daemon) JobStatuses() []JobStatus {
	d.mu.Lock()
	jobs := make([]*Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		jobs = append(jobs, j)
	}
	d.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// markDone records one shard completion on a job; it takes job.mu.
// Daemon-wide counters are the caller's business.
func (job *Job) markDone(shard int, cache bool) {
	job.mu.Lock()
	if job.done[shard] {
		job.mu.Unlock()
		return
	}
	job.done[shard] = true
	if cache {
		job.cacheHits++
	} else {
		job.executed++
	}
	job.events = append(job.events, Event{Shard: shard, Cache: cache})
	job.cond.Broadcast()
	job.mu.Unlock()
}

func (job *Job) setState(s JobState, errMsg string) {
	job.mu.Lock()
	job.state = s
	if errMsg != "" {
		job.errMsg = errMsg
	}
	job.cond.Broadcast()
	job.mu.Unlock()
}

// resolveJob answers every undone shard it can from the store; returns
// how many shards remain. Called without d.mu (store reads hit disk).
func (d *Daemon) resolveJob(job *Job) (remaining int) {
	hits := 0
	for i, k := range job.keys {
		job.mu.Lock()
		isDone := job.done[i]
		job.mu.Unlock()
		if isDone {
			continue
		}
		// One Get centralizes the store accounting: an absent key is an
		// index lookup only (a counted miss), a present-but-corrupt entry
		// is quarantined inside Get and reported as a miss; recompute.
		if _, ok := d.store.Get(k); !ok {
			remaining++
			continue
		}
		job.tl.Instant("cache-hit", "shard", int64(i), "")
		job.markDone(i, true)
		hits++
	}
	if hits > 0 {
		obsShardsHit.Add(uint64(hits))
		d.mu.Lock()
		d.totalHits += hits
		d.pending -= hits
		obsQueueDepth.Set(int64(d.pending))
		d.mu.Unlock()
	}
	return remaining
}

// finishJob flips a job whose every shard is stored to Done.
func (d *Daemon) finishJob(job *Job) {
	// Count the job, mark its trace and drop its descriptors before
	// publishing its state: a waiter woken by the state change must
	// already see all three.
	obsJobsDone.Inc()
	st := job.Status()
	job.tl.Instant("done", "job", -1,
		fmt.Sprintf("%d cache hits, %d executed", st.CacheHits, st.Executed))
	job.shards = nil
	job.setState(JobDone, "")
	d.logf("rvd: job %d done (%d shards: %d cache hits, %d executed)",
		job.ID, st.Shards, st.CacheHits, st.Executed)
}

func (s JobState) isFinal() bool { return s == JobDone || s == JobFailed }

// batchItem is one shard picked for a backend run; startNs is the
// dispatch stamp on the job's timeline, the start of its execution span.
type batchItem struct {
	job     *Job
	shard   int
	startNs int64
}

// schedule is the daemon's single scheduler goroutine: activate queued
// jobs, resolve them against the store, fair-pick a bounded batch of
// pending shards round-robin across active jobs, execute it on the
// fleet, store each result durably, and repeat. One scheduler means one
// backend.Run at a time (the dist coordinator's contract) and no
// requeue/completion races by construction.
func (d *Daemon) schedule() {
	defer close(d.schedDone)
	for {
		d.mu.Lock()
		for !d.closing && len(d.queue) == 0 && len(d.active) == 0 {
			d.cond.Wait()
		}
		closing := d.closing
		var newJobs []*Job
		if !closing {
			newJobs = d.queue
			d.queue = nil
			d.active = append(d.active, newJobs...)
		}
		active := append([]*Job(nil), d.active...)
		d.mu.Unlock()

		for _, job := range newJobs {
			obsQueueWaitNs.Observe(uint64(time.Since(job.submittedAt)))
			job.tl.Instant("activate", "job", -1, "")
			job.setState(JobRunning, "")
		}

		// Resolve every active job against the store: cache hits,
		// cross-job pickups and the shards the last batch stored complete
		// here without touching the fleet. Shutdown is honoured only
		// after this, so a job whose last shard was stored before Close
		// ends Done, not Suspended.
		var still []*Job
		for _, job := range active {
			if d.resolveJob(job) == 0 {
				d.finishJob(job)
				d.dropJob(job)
			} else {
				still = append(still, job)
			}
		}
		if closing {
			return
		}
		if len(still) == 0 {
			continue
		}

		// Fair dequeue: one shard per job per round-robin turn, distinct
		// cache keys only (duplicate keys within one batch — the
		// overlapping-sweeps traffic shape — execute once and resolve
		// for everyone on the next pass).
		var batch []batchItem
		seen := map[Key]bool{}
		cursor := make([]int, len(still))
		d.mu.Lock()
		rr := d.rr % len(still)
		d.mu.Unlock()
		for len(batch) < d.cfg.BatchShards {
			picked := false
			for t := 0; t < len(still) && len(batch) < d.cfg.BatchShards; t++ {
				job := still[(rr+t)%len(still)]
				ji := (rr + t) % len(still)
				for cursor[ji] < len(job.shards) {
					i := cursor[ji]
					cursor[ji]++
					job.mu.Lock()
					isDone := job.done[i]
					job.mu.Unlock()
					if isDone || seen[job.keys[i]] {
						continue
					}
					seen[job.keys[i]] = true
					it := batchItem{job: job, shard: i, startNs: job.tl.Now()}
					job.tl.Instant("dispatch", "shard", int64(i), "")
					batch = append(batch, it)
					picked = true
					break
				}
			}
			if !picked {
				break
			}
		}
		d.mu.Lock()
		d.rr++
		d.mu.Unlock()
		if len(batch) == 0 {
			// Every pending shard is a duplicate of one already stored?
			// Cannot happen: resolve left them unresolved, so they are
			// genuinely absent. An empty batch here means all remaining
			// shards were marked done concurrently; loop and re-resolve.
			continue
		}

		descs := make([]*dist.ShardDesc, len(batch))
		for i, it := range batch {
			descs[i] = it.job.shards[it.shard]
		}
		d.slogf(slog.LevelDebug, "rvd: dispatching %d shards across %d active jobs", len(batch), len(still))
		results, err := d.cfg.Backend.Run(descs)
		if err != nil {
			// Operational failure (fleet died, poison shard exhausted
			// attempts): fail the batch's jobs; others are untouched.
			d.failJobs(batch, err)
			continue
		}

		for i, it := range batch {
			value := results[i].AppendEncode(nil)
			if err := d.store.Put(it.job.keys[it.shard], value); err != nil {
				d.failJobs(batch[i:], err)
				break
			}
			it.job.tl.Span("shard", "shard", int64(it.shard), it.startNs, "executed")
			it.job.markDone(it.shard, false)
			obsShardsExec.Inc()
			d.mu.Lock()
			d.totalExec++
			d.pending--
			obsQueueDepth.Set(int64(d.pending))
			crash := d.crashAfterStores > 0 && d.totalExec >= d.crashAfterStores
			d.mu.Unlock()
			if crash {
				// Simulated kill -9: halt dead. No state transitions, no
				// cleanup — a resubmission must recover everything after
				// this instant from the store alone.
				close(d.crashed)
				return
			}
		}
	}
}

// dropJob removes a finished job from the active set (it stays in jobs
// for status/event queries).
func (d *Daemon) dropJob(job *Job) {
	d.mu.Lock()
	for i, j := range d.active {
		if j == job {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
}

// failJobs marks the distinct jobs of a failed batch failed and removes
// them from scheduling; their stored shards stay in the store, so a
// resubmission retries only the rest.
func (d *Daemon) failJobs(batch []batchItem, cause error) {
	seen := map[*Job]bool{}
	for _, it := range batch {
		if seen[it.job] {
			continue
		}
		seen[it.job] = true
		d.slogf(slog.LevelWarn, "rvd: job %d failed: %v", it.job.ID, cause)
		it.job.tl.Instant("failed", "job", -1, truncDetail(cause.Error()))
		it.job.shards = nil
		it.job.setState(JobFailed, cause.Error())
		obsJobsFailed.Inc()
		d.mu.Lock()
		remaining := 0
		it.job.mu.Lock()
		for _, done := range it.job.done {
			if !done {
				remaining++
			}
		}
		it.job.mu.Unlock()
		d.pending -= remaining
		obsQueueDepth.Set(int64(d.pending))
		d.mu.Unlock()
		d.dropJob(it.job)
	}
}

// Close begins graceful shutdown: new submissions are refused, the
// scheduler finishes its in-flight batch and stops, and unfinished
// jobs' watchers see JobSuspended. Those jobs do not resume on the next
// Open; their submitters resubmit. Close returns nil: every stored
// result is already durable. The backend is the caller's to close
// afterwards — its Close drains worker connections.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closing {
		d.mu.Unlock()
		<-d.schedDone
		return nil
	}
	d.closing = true
	d.cond.Broadcast()
	d.mu.Unlock()
	select {
	case <-d.schedDone:
	case <-d.crashed:
		// A simulated crash already halted the scheduler; there is
		// nothing to drain (and nothing we are allowed to flush).
	}
	d.mu.Lock()
	jobs := append(append([]*Job(nil), d.queue...), d.active...)
	d.mu.Unlock()
	for _, job := range jobs {
		if !job.Status().State.isFinal() {
			job.setState(JobSuspended, "")
		}
	}
	return nil
}
