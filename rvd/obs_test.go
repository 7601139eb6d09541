package rvd

// Observability tests: the /metrics exposition moves the right families
// on a cold run vs a warm rerun, the per-job trace endpoint exports
// well-formed Chrome trace JSON, a client tails the deprecated events
// stream of a slow multi-batch job to the end, and /v1/stats reports
// store size and per-job splits.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/dist"
	"repro/internal/obs"
)

// TestMetricsExposition pins the tentpole's rvd contract: a cold run
// moves the executed counters, a warm rerun of the same shards moves the
// store-hit counters, and GET /metrics serves valid Prometheus text
// covering the sim, dist, and rvd families in one exposition.
func TestMetricsExposition(t *testing.T) {
	shards := fixedSweep(t)
	n := uint64(len(shards))
	d := openTestDaemon(t, t.TempDir(), nil)

	before := obs.Default().Values()
	_, stCold := submitWait(t, d, shards)
	mid := obs.Default().Values()

	if got := mid["rvd_shards_executed_total"] - before["rvd_shards_executed_total"]; got != n {
		t.Fatalf("cold run moved rvd_shards_executed_total by %d, want %d", got, n)
	}
	if got := mid["rvd_store_written_bytes_total"] - before["rvd_store_written_bytes_total"]; got == 0 {
		t.Fatal("cold run wrote no store bytes")
	}
	if got := mid["rvd_jobs_done_total"] - before["rvd_jobs_done_total"]; got != 1 {
		t.Fatalf("cold run moved rvd_jobs_done_total by %d, want 1", got)
	}
	if stCold.Executed != int(n) {
		t.Fatalf("cold run executed %d, want %d", stCold.Executed, n)
	}

	_, stWarm := submitWait(t, d, shards)
	after := obs.Default().Values()
	if got := after["rvd_store_hits_total"] - mid["rvd_store_hits_total"]; got != n {
		t.Fatalf("warm run moved rvd_store_hits_total by %d, want %d", got, n)
	}
	if got := after["rvd_shards_cache_hits_total"] - mid["rvd_shards_cache_hits_total"]; got != n {
		t.Fatalf("warm run moved rvd_shards_cache_hits_total by %d, want %d", got, n)
	}
	if got := after["rvd_shards_executed_total"] - mid["rvd_shards_executed_total"]; got != 0 {
		t.Fatalf("warm run executed %d shards, want 0", got)
	}
	if stWarm.CacheHits != int(n) {
		t.Fatalf("warm run hit %d, want %d", stWarm.CacheHits, n)
	}

	// The HTTP surface: valid text exposition covering all three tiers
	// (the in-process backend ran sim engines and the dist coordinator
	// inside this very process).
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE rvd_store_hits_total counter",
		"# TYPE rvd_queue_depth gauge",
		"# TYPE rvd_queue_wait_ns histogram",
		`rvd_queue_wait_ns_bucket{le="+Inf"}`,
		"rvd_shards_executed_total",
		"rvd_store_bytes",
		"# TYPE sim_runs_total counter",
		"sim_wakeups_total",
		"# TYPE dist_shards_dispatched_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, "rvd_journal_") {
		t.Error("exposition still carries an rvd_journal_ family")
	}
	// Every sample line is well-formed `name 123`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestStatsStoreAndJobDetail pins the /v1/stats satellite: size on disk,
// entry counts, and per-job exec-vs-hit splits.
func TestStatsStoreAndJobDetail(t *testing.T) {
	shards := fixedSweep(t)
	n := len(shards)
	d := openTestDaemon(t, t.TempDir(), nil)
	_, _ = submitWait(t, d, shards)
	_, _ = submitWait(t, d, shards)

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.StoreEntries != n {
		t.Fatalf("store_entries = %d, want %d", st.StoreEntries, n)
	}
	if st.StoreBytes <= 0 {
		t.Fatalf("store_bytes = %d, want > 0", st.StoreBytes)
	}
	if st.Executed != n || st.CacheHits != n {
		t.Fatalf("daemon splits %d executed / %d hits, want %d / %d", st.Executed, st.CacheHits, n, n)
	}
	if len(st.JobsDetail) != 2 {
		t.Fatalf("jobs_detail has %d rows, want 2", len(st.JobsDetail))
	}
	cold, warm := st.JobsDetail[0], st.JobsDetail[1]
	if cold.Executed != n || cold.CacheHits != 0 {
		t.Fatalf("cold job detail %d executed / %d hits, want %d / 0", cold.Executed, cold.CacheHits, n)
	}
	if warm.Executed != 0 || warm.CacheHits != n {
		t.Fatalf("warm job detail %d executed / %d hits, want 0 / %d", warm.Executed, warm.CacheHits, n)
	}
	if cold.State != "done" || warm.State != "done" {
		t.Fatalf("job detail states %q / %q, want done / done", cold.State, warm.State)
	}
}

// TestJobTraceEndpoint pins GET /v1/sweeps/{id}/trace: Chrome trace JSON
// with the job lifecycle markers and one execution span per executed
// shard, each preceded by its dispatch instant on the same track.
func TestJobTraceEndpoint(t *testing.T) {
	shards := fixedSweep(t)
	d := openTestDaemon(t, t.TempDir(), nil)
	job, _ := submitWait(t, d, shards)

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + itoa(job.ID) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	resp.Body.Close()

	names := map[string]int{}
	spans := map[int64][]float64{}  // track -> [start, end]
	dispatch := map[int64]float64{} // track -> dispatch ts
	for _, ev := range out.TraceEvents {
		if ev.Name == "" || (ev.Ph != "X" && ev.Ph != "i") || ev.Ts < 0 {
			t.Fatalf("malformed trace event %+v", ev)
		}
		names[ev.Name]++
		if ev.Name == "shard" && ev.Ph == "X" {
			spans[ev.Tid] = []float64{ev.Ts, ev.Ts + ev.Dur}
		}
		if ev.Name == "dispatch" {
			dispatch[ev.Tid] = ev.Ts
		}
	}
	for _, want := range []string{"submit", "activate", "done"} {
		if names[want] != 1 {
			t.Fatalf("trace has %d %q markers, want 1 (names %v)", names[want], want, names)
		}
	}
	if names["shard"] != len(shards) {
		t.Fatalf("trace has %d shard spans, want %d", names["shard"], len(shards))
	}
	// Strict per-shard ordering: dispatch within [span start, span end].
	for track, span := range spans {
		dts, ok := dispatch[track]
		if !ok {
			t.Fatalf("shard %d span has no dispatch instant", track)
		}
		if dts < span[0] || dts > span[1] {
			t.Fatalf("shard %d dispatch ts %v outside span [%v, %v]", track, dts, span[0], span[1])
		}
	}
}

// slowBackend delays each fleet dispatch so a job's events stream is
// tailed live across several batches.
type slowBackend struct {
	dist.Backend
	delay time.Duration
}

func (s *slowBackend) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	time.Sleep(s.delay)
	return s.Backend.Run(shards)
}

// TestEventsProgressLines pins the deprecated three-request path that
// perfbench's traced daemon run times, on a job that outlives several
// batches: a JSON submission, its events stream tailed live, which
// carries one line per shard and then the terminal line and nothing
// else, and each shard's result fetched by the key its line names,
// which together match the reference results.
func TestEventsProgressLines(t *testing.T) {
	shards := fixedSweep(t)
	ref := referenceBytes(t, shards)
	d := openTestDaemon(t, t.TempDir(), func(cfg *Config) {
		cfg.Backend = &slowBackend{Backend: dist.NewInProcess(2), delay: 30 * time.Millisecond}
		cfg.BatchShards = 2
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	req := submitRequest{}
	for _, raw := range shards {
		req.Shards = append(req.Shards, b64(raw))
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil || sub.Shards != len(shards) {
		t.Fatalf("JSON submission: %s, %+v (%v)", resp.Status, sub, err)
	}

	resp, err = http.Get(srv.URL + "/v1/sweeps/" + itoa(sub.ID) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(events), "\n"), "\n")
	if len(lines) != len(shards)+1 {
		t.Fatalf("events stream carried %d lines, want %d shard lines and the terminal line:\n%s",
			len(lines), len(shards), events)
	}
	keys := make([]string, len(shards))
	for i, raw := range lines[:len(shards)] {
		var line eventLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		if line.Shard == nil || *line.Shard < 0 || *line.Shard >= len(shards) || keys[*line.Shard] != "" || line.Key == "" || line.State != "" {
			t.Fatalf("line %d is not a first completion of a shard: %s", i, raw)
		}
		keys[*line.Shard] = line.Key
	}
	var last eventLine
	if err := json.Unmarshal([]byte(lines[len(shards)]), &last); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", lines[len(shards)], err)
	}
	if last.State != "done" || last.Shard != nil {
		t.Fatalf("final line %s, want the done state alone", lines[len(shards)])
	}

	var got []byte
	for i, key := range keys {
		resp, err := http.Get(srv.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		value, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("fetching shard %d: %s (%v)", i, resp.Status, err)
		}
		got = append(got, value...)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("fetched results differ from reference")
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
