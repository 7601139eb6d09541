package rvd

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// The HTTP/JSON front end. Shard descriptors cross the wire as base64 of
// their canonical dist encoding — the JSON layer frames and names things,
// the hardened binary codec still validates every byte.
//
//	POST /v1/sweeps            {"shards": ["<base64>", ...]}
//	  201 {"id": N, "shards": S}          job accepted and queued
//	  503 + Retry-After                   admission control shed the job
//	GET  /v1/sweeps/{id}                  job status snapshot
//	GET  /v1/sweeps/{id}/events           NDJSON stream: one line per shard
//	                                      completion, then a terminal line
//	GET  /v1/sweeps/{id}/trace            job lifecycle timeline as Chrome
//	                                      trace-event JSON (Perfetto)
//	GET  /v1/results/{key}                raw result bytes for a cache key
//	GET  /v1/stats                        daemon-wide counters + per-job
//	                                      cache-hit/executed splits
//	GET  /metrics                         Prometheus text exposition of
//	                                      the process obs registry

// submitRequest is the POST /v1/sweeps body.
type submitRequest struct {
	Shards []string `json:"shards"` // base64 canonical ShardDesc encodings
}

// submitResponse answers a successful submission.
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

// eventLine is one NDJSON line on the events stream. Per-shard lines
// carry Shard/Cache/Key; the terminal line carries only State (and Err
// when failed) and is always last.
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
	mux.HandleFunc("POST /v1/sweeps", d.handleSubmit)
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
	var over *ErrOverloaded
	switch {
	case errors.As(err, &over):
		w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter.Seconds()+0.5)))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, http.StatusCreated, submitResponse{ID: job.ID, Shards: len(job.keys)})
	}
}

func (d *Daemon) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return nil, false
	}
	job, ok := d.JobByID(id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return nil, false
	}
	return job, true
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

// handleEvents streams the job's per-shard completions as NDJSON: replay
// everything already recorded, then tail live completions until the job
// reaches a terminal state, which is emitted as the final line. The
// stream is flushed per batch so a submitter sees completions as they
// land.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Wake the tailing loop when the client goes away, so the handler
	// never outlives the connection.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		job.mu.Lock()
		job.cond.Broadcast()
		job.mu.Unlock()
	})
	defer stop()

	sent := 0
	for {
		job.mu.Lock()
		for sent >= len(job.events) && !job.terminal() && ctx.Err() == nil {
			job.cond.Wait()
		}
		events := job.events[sent:]
		sent = len(job.events)
		state := job.state
		errMsg := job.errMsg
		job.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for i := range events {
			ev := events[i]
			line := eventLine{Shard: &ev.Shard, Cache: &ev.Cache, Key: job.keys[ev.Shard].String()}
			if err := enc.Encode(line); err != nil {
				return
			}
		}
		terminal := state == JobDone || state == JobFailed || state == JobSuspended
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			_ = enc.Encode(eventLine{State: state.String(), Err: errMsg})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
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
