package rvd

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/dist"
	"repro/internal/obs"
)

// The HTTP front end: a job is one exchange, in dist checksummed frames
// both ways (see doc.go); three JSON-era endpoints stay, deprecated,
// while perfbench's traced daemon run times them.
//
//	POST /v1/sweeps             body: one frame per shard, its ShardDesc encoding
//	  200 + frame stream        one frame per shard as it completes, then the end
//	  400                       bad frame or shard
//	  503 (+ Retry-After)       shutting down (shed by admission control)
//	POST /v1/sweeps             deprecated JSON form: {"shards": ["<base64>", ...]}
//	  201 {"id": N, "shards": S}
//	GET  /v1/sweeps/{id}        job status snapshot; 410 once evicted
//	GET  /v1/sweeps/{id}/events deprecated NDJSON stream: one line per shard
//	                            completion, then a terminal line
//	GET  /v1/sweeps/{id}/trace  job lifecycle timeline as Chrome trace-event
//	                            JSON (Perfetto)
//	GET  /v1/results/{key}      deprecated: raw result bytes for a cache key
//	GET  /v1/stats              daemon-wide counters + per-job splits
//	GET  /metrics               Prometheus text exposition of the obs registry
//
// A job stream frame's payload is {kind, uvarint, byte, rest}:
//
//	shard  {1, shard index, cache 0|1, result bytes}
//	end    {2, job id, JobState, error text}   always last
const (
	streamShard byte = 1
	streamEnd   byte = 2
)

func appendShardFrame(dst []byte, ev Event) []byte {
	cache := byte(0)
	if ev.Cache {
		cache = 1
	}
	return append(append(binary.AppendUvarint(append(dst, streamShard), uint64(ev.Shard)), cache), ev.result...)
}

func appendEndFrame(dst []byte, id uint64, state JobState, errMsg string) []byte {
	return append(append(binary.AppendUvarint(append(dst, streamEnd), id), byte(state)), errMsg...)
}

// submitRequest is the deprecated JSON POST /v1/sweeps body.
type submitRequest struct {
	Shards []string `json:"shards"` // base64 canonical ShardDesc encodings
}

// submitResponse answers a successful JSON submission.
type submitResponse struct {
	ID     uint64 `json:"id"`
	Shards int    `json:"shards"`
}

// statusResponse answers GET /v1/sweeps/{id}.
type statusResponse struct {
	ID        uint64 `json:"id"`
	State     string `json:"state"`
	Shards    int    `json:"shards"`
	Completed int    `json:"completed"`
	CacheHits int    `json:"cache_hits"`
	Executed  int    `json:"executed"`
	Err       string `json:"error,omitempty"`
}

// eventLine is one NDJSON line on the deprecated events stream. Per-shard
// lines carry Shard/Cache/Key; the terminal line carries only State (and
// Err when failed) and is always last.
type eventLine struct {
	Shard *int   `json:"shard,omitempty"`
	Cache *bool  `json:"cache,omitempty"`
	Key   string `json:"key,omitempty"`
	State string `json:"state,omitempty"`
	Err   string `json:"error,omitempty"`
}

// statsResponse answers GET /v1/stats.
type statsResponse struct {
	Jobs          int           `json:"jobs"`
	PendingShards int           `json:"pending_shards"`
	StoreEntries  int           `json:"store_entries"`
	StoreBytes    int64         `json:"store_bytes"`
	Quarantined   int           `json:"quarantined"`
	CacheHits     int           `json:"cache_hits"`
	Executed      int           `json:"executed"`
	JobsDetail    []jobStatLine `json:"jobs_detail,omitempty"`
}

// jobStatLine is one job's row in the stats response: its state and
// exec-vs-hit split.
type jobStatLine struct {
	ID        uint64 `json:"id"`
	State     string `json:"state"`
	Shards    int    `json:"shards"`
	Completed int    `json:"completed"`
	CacheHits int    `json:"cache_hits"`
	Executed  int    `json:"executed"`
}

// maxSubmitBody bounds a submission body.
const maxSubmitBody = 1 << 26

// Handler returns the daemon's HTTP API as an http.Handler.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", d.handleJob)
	mux.HandleFunc("GET /v1/sweeps/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", d.handleTrace)
	mux.HandleFunc("GET /v1/results/{key}", d.handleResult)
	mux.HandleFunc("GET /v1/stats", d.handleStats)
	mux.Handle("GET /metrics", obs.Default().Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// handleJob runs a job in one exchange: it submits the body's shard
// frames and streams back a frame per completion, then the end frame.
// Any other content type is the deprecated JSON form.
func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") != "application/octet-stream" {
		d.handleSubmit(w, r)
		return
	}
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	var shards [][]byte
	for {
		raw, err := dist.ReadFrameSum(br, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request: shard %d: %v", len(shards), err), http.StatusBadRequest)
			return
		}
		shards = append(shards, raw)
	}
	job, err := d.submit(shards, true)
	if !submitted(w, err) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	var frame []byte
	err = job.tail(w, r, true, func(ev Event) error {
		frame = appendShardFrame(frame[:0], ev)
		return dist.WriteFrameSum(bw, frame)
	}, func(state JobState, errMsg string) error {
		frame = appendEndFrame(frame[:0], job.ID, state, errMsg)
		return dist.WriteFrameSum(bw, frame)
	})
	if err != nil { // the client left: drop the bytes not sent, keep no more
		job.mu.Lock()
		job.streaming = false
		for i := range job.events {
			job.events[i].result = nil
		}
		job.mu.Unlock()
	}
}

// handleSubmit accepts a JSON job and answers with its id.
//
// Deprecated: perfbench's traced daemon run times it, with /events and
// /v1/results/{key}, as its submit, complete and fetch phases.
func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	shards := make([][]byte, len(req.Shards))
	for i, s := range req.Shards {
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request: shard %d: %v", i, err), http.StatusBadRequest)
			return
		}
		shards[i] = raw
	}
	job, err := d.Submit(shards)
	if submitted(w, err) {
		writeJSON(w, http.StatusCreated, submitResponse{ID: job.ID, Shards: len(job.keys)})
	}
}

// submitted reports whether a submission was accepted, answering with
// the status err maps to when it was not.
func submitted(w http.ResponseWriter, err error) bool {
	var over *ErrOverloaded
	switch {
	case errors.As(err, &over):
		w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter.Seconds()+0.5)))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
	return err == nil
}

func (d *Daemon) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return nil, false
	}
	job, ok := d.JobByID(id)
	if !ok && d.issued(id) {
		http.Error(w, fmt.Sprintf("job %d is gone: the daemon keeps its last %d finished jobs", id, maxFinishedJobs), http.StatusGone)
	} else if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
	}
	return job, ok
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	st := job.Status()
	writeJSON(w, http.StatusOK, statusResponse{
		ID: st.ID, State: st.State.String(), Shards: st.Shards,
		Completed: st.Completed, CacheHits: st.CacheHits,
		Executed: st.Executed, Err: st.Err,
	})
}

// tail answers r with a job's completions in order, handed to send and
// flushed after each batch, then its terminal state, handed to end; with
// take it moves each completion's result bytes out of the job as it goes
// (only the submitting stream takes them). It returns early, with the
// error, when the request's context ends or a write fails.
func (job *Job) tail(w http.ResponseWriter, r *http.Request, take bool,
	send func(Event) error, end func(JobState, string) error) error {
	flusher, _ := w.(http.Flusher)
	// Wake the loop when the watcher goes away, so it never outlives the
	// connection.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		job.mu.Lock()
		job.cond.Broadcast()
		job.mu.Unlock()
	})
	defer stop()

	var batch []Event
	for sent := 0; ; {
		job.mu.Lock()
		for sent == len(job.events) && !job.terminal() && ctx.Err() == nil {
			job.cond.Wait()
		}
		batch = append(batch[:0], job.events[sent:]...)
		if take {
			for i := sent; i < len(job.events); i++ {
				job.events[i].result = nil
			}
		}
		sent = len(job.events)
		final, state, errMsg := job.terminal(), job.state, job.errMsg
		job.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, ev := range batch {
			if err := send(ev); err != nil {
				return err
			}
		}
		if final { // the server flushes the rest as the handler returns
			return end(state, errMsg)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleEvents streams the job's completions as NDJSON, then its
// terminal state.
//
// Deprecated: perfbench's traced daemon run times it (see handleSubmit).
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	_ = job.tail(w, r, false, func(ev Event) error {
		return enc.Encode(eventLine{Shard: &ev.Shard, Cache: &ev.Cache, Key: job.keys[ev.Shard].String()})
	}, func(state JobState, errMsg string) error {
		return enc.Encode(eventLine{State: state.String(), Err: errMsg})
	})
}

// handleTrace serves the job's lifecycle timeline as Chrome trace-event
// JSON, loadable directly in Perfetto or chrome://tracing.
func (d *Daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = job.WriteTrace(w)
}

// handleResult serves the stored result bytes for a cache key.
//
// Deprecated: perfbench's traced daemon run times it (see handleSubmit).
func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	var k Key
	raw, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(raw) != len(k) {
		http.Error(w, "bad cache key", http.StatusBadRequest)
		return
	}
	copy(k[:], raw)
	value, ok := d.store.Get(k)
	if !ok {
		http.Error(w, "no such result", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(value)
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.Stats()
	resp := statsResponse{
		Jobs: st.Jobs, PendingShards: st.PendingShards,
		StoreEntries: st.StoreEntries, StoreBytes: st.StoreBytes,
		Quarantined: st.Quarantined,
		CacheHits:   st.CacheHits, Executed: st.Executed,
	}
	for _, js := range d.JobStatuses() {
		resp.JobsDetail = append(resp.JobsDetail, jobStatLine{
			ID: js.ID, State: js.State.String(), Shards: js.Shards,
			Completed: js.Completed, CacheHits: js.CacheHits,
			Executed: js.Executed,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
