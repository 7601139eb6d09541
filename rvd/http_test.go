package rvd

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/dist"
	"repro/internal/simtest"
)

// TestHTTPClientRoundTrip drives the full daemon stack the way rvx
// -daemon does: Client (a dist.Backend) → HTTP API → daemon → fleet →
// store, and pins the results against a direct backend run. It also
// pins the work of the cold job and the warm one against
// testdata/counts.txt: the rvd_*, dist_* and sim_* counter samples each
// job moved, among them the store bytes the cold job wrote and the warm
// job read.
func TestHTTPClientRoundTrip(t *testing.T) {
	shards := fixedSweep(t)
	ref := referenceBytes(t, shards)
	d := openTestDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	descs := make([]*dist.ShardDesc, len(shards))
	for i, raw := range shards {
		descs[i] = new(dist.ShardDesc)
		if err := descs[i].Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	cl := &Client{BaseURL: srv.URL, Logf: t.Logf}
	run := func() []byte {
		results, err := cl.Run(descs)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, r := range results {
			out = r.AppendEncode(out)
		}
		return out
	}

	var counts strings.Builder
	for _, job := range []string{"cold", "warm"} {
		var got []byte
		counts.WriteString(simtest.CountDeltas(job, func() { got = run() }, "rvd_", "dist_", "sim_"))
		if !bytes.Equal(got, ref) {
			t.Fatalf("%s client run differs from reference", job)
		}
	}
	simtest.RequireGolden(t, filepath.Join("testdata", "counts.txt"), counts.String(),
		"copy the logged file into it: `go test -run 'TestHTTPClientRoundTrip$' ./rvd/ "+
			"| awk '$1 ~ /^(cold|warm)$/ && NF == 3 {print $1, $2, $3}' > rvd/testdata/counts.txt`")
	stats := d.Stats()
	if stats.Executed != len(shards) || stats.CacheHits != len(shards) {
		t.Fatalf("after cold+warm: %d executed / %d hits, want %d / %d",
			stats.Executed, stats.CacheHits, len(shards), len(shards))
	}

	// Status endpoint agrees on the warm job.
	jobs := d.JobStatuses()
	if len(jobs) != 2 {
		t.Fatalf("daemon holds %d jobs, want 2", len(jobs))
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + itoa(jobs[1].ID))
	if err != nil {
		t.Fatal(err)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "done" || st.CacheHits != len(shards) {
		t.Fatalf("status: %+v", st)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	d := openTestDaemon(t, t.TempDir(), func(cfg *Config) {
		cfg.QueueBound = 1
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", resp.StatusCode)
	}
	if resp := post(`{"shards":["!!!not-base64!!!"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad base64: %d", resp.StatusCode)
	}
	if resp := post(`{"shards":["/////w=="]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt shard bytes: %d", resp.StatusCode)
	}

	// Admission control: two valid shards against a bound of one.
	shards := fixedSweep(t)
	req := submitRequest{Shards: make([]string, 2)}
	for i := 0; i < 2; i++ {
		req.Shards[i] = b64(shards[i])
	}
	body, _ := json.Marshal(req)
	resp := post(string(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-bound submission: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	if resp, err := http.Get(srv.URL + "/v1/sweeps/99"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/results/zzzz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad key: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/results/" + testKey(0).String()); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("absent key: %d", resp.StatusCode)
		}
	}
}

func b64(raw []byte) string {
	return base64.StdEncoding.EncodeToString(raw)
}
