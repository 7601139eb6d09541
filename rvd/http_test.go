package rvd

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/dist"
	"repro/internal/simtest"
)

// countingTransport counts the requests made through it.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// decodeShards decodes raw shard encodings into descriptors.
func decodeShards(t *testing.T, shards [][]byte) []*dist.ShardDesc {
	t.Helper()
	descs := make([]*dist.ShardDesc, len(shards))
	for i, raw := range shards {
		descs[i] = new(dist.ShardDesc)
		if err := descs[i].Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	return descs
}

// frames frames each payload as a dist checksummed frame, the binary
// POST /v1/sweeps body.
func frames(t testing.TB, payloads ...[]byte) []byte {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	for _, p := range payloads {
		if err := dist.WriteFrameSum(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestHTTPClientRoundTrip drives the full daemon stack the way rvx
// -daemon does: Client (a dist.Backend) → HTTP API → daemon → fleet →
// store, and pins the results against a direct backend run, in one HTTP
// request per job. It also pins the work of the cold job and the warm
// one against testdata/counts.txt: the rvd_*, dist_* and sim_* counter
// samples each job moved, among them the store bytes the cold job wrote
// and the warm job read.
func TestHTTPClientRoundTrip(t *testing.T) {
	shards := fixedSweep(t)
	ref := referenceBytes(t, shards)
	d := openTestDaemon(t, t.TempDir(), nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	descs := decodeShards(t, shards)
	requests := &countingTransport{}
	cl := &Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: requests}, Logf: t.Logf}
	run := func() []byte {
		before := requests.n.Load()
		results, err := cl.Run(descs)
		if err != nil {
			t.Fatal(err)
		}
		if n := requests.n.Load() - before; n != 1 {
			t.Fatalf("a job took %d requests, want 1", n)
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

	shards := fixedSweep(t)
	one := frames(t, shards[0])
	flipped := bytes.Clone(one)
	flipped[len(flipped)-1] ^= 0x01
	overBound, _ := json.Marshal(submitRequest{Shards: []string{b64(shards[0]), b64(shards[1])}})
	for _, tc := range []struct {
		name, contentType, body string
		want                    int
	}{
		{"malformed JSON", "application/json", `{not json`, http.StatusBadRequest},
		{"bad base64", "application/json", `{"shards":["!!!not-base64!!!"]}`, http.StatusBadRequest},
		{"corrupt shard bytes", "application/json", `{"shards":["/////w=="]}`, http.StatusBadRequest},
		{"over-bound JSON job", "application/json", string(overBound), http.StatusServiceUnavailable},
		{"empty body", "application/octet-stream", "", http.StatusBadRequest},
		{"truncated frame", "application/octet-stream", string(one[:len(one)-1]), http.StatusBadRequest},
		{"flipped checksum byte", "application/octet-stream", string(flipped), http.StatusBadRequest},
		{"corrupt shard frame", "application/octet-stream", string(frames(t, []byte{0xFF, 0xFF, 0xFF})), http.StatusBadRequest},
		{"over-bound job", "application/octet-stream", string(frames(t, shards[0], shards[1])), http.StatusServiceUnavailable},
	} {
		resp, err := http.Post(srv.URL+"/v1/sweeps", tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 503 without Retry-After", tc.name)
		}
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/sweeps/99", http.StatusNotFound},
		{"/v1/results/zzzz", http.StatusBadRequest},
		{"/v1/results/" + testKey(0).String(), http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func b64(raw []byte) string {
	return base64.StdEncoding.EncodeToString(raw)
}
