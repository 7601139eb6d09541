package rvd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/dist"
)

// Client submits sweeps to a running rvd daemon over its HTTP API. It
// implements dist.Backend, so `rvx -daemon ADDR` is one SetDistBackend
// call away from routing every sweep through the daemon's cache: Run is
// one request per job, a POST of the shards whose response streams each
// shard's result bytes back as it completes, then the job's end — the
// caller cannot tell (except in wall-clock time) whether a shard was
// executed or cache-hit.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7421".
	BaseURL string
	// HTTPClient defaults to a client with no overall timeout (sweeps
	// are long); per-request cancellation is the transport's business.
	HTTPClient *http.Client
	// Logf (nil for silent) receives per-job progress notices, including
	// the cache-hit/executed split the CI smoke asserts on.
	Logf func(format string, args ...any)
}

// submitRetries bounds how many 503-shed submissions Run retries (after
// honoring Retry-After) before giving up.
const submitRetries = 4

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Run implements dist.Backend: one call is one daemon job, in one HTTP
// exchange.
func (c *Client) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	if len(shards) == 0 {
		return nil, nil
	}
	var body bytes.Buffer
	bw := bufio.NewWriter(&body)
	for _, sh := range shards {
		if err := dist.WriteFrameSum(bw, sh.Encode()); err != nil {
			return nil, err
		}
	}

	var js *jobStream
	for attempt := 0; ; attempt++ {
		resp, err := c.httpClient().Post(c.BaseURL+"/v1/sweeps", "application/octet-stream", bytes.NewReader(body.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("rvd: submitting sweep: %w", err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < submitRetries {
			// Admission control shed us: honor Retry-After and resubmit.
			delay := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c.logf("rvd: daemon overloaded, retrying in %v (attempt %d/%d)", delay, attempt+1, submitRetries)
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return nil, fmt.Errorf("rvd: submit rejected: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		js, err = readJobStream(resp.Body, len(shards))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("rvd: job stream: %w", err)
		}
		break
	}
	switch js.state {
	case JobFailed:
		return nil, fmt.Errorf("rvd: job %d failed: %s", js.id, js.errMsg)
	case JobSuspended:
		return nil, fmt.Errorf("rvd: job %d suspended by daemon shutdown; resubmit after restart", js.id)
	}
	results := make([]*dist.ShardResult, len(shards))
	hits := 0
	for _, ev := range js.shards {
		if ev.Cache {
			hits++
		}
		results[ev.Shard] = new(dist.ShardResult)
		if err := results[ev.Shard].Decode(ev.result); err != nil {
			return nil, fmt.Errorf("rvd: job %d: decoding shard %d result: %w", js.id, ev.Shard, err)
		}
	}
	c.logf("rvd: job %d: %d shards, %d cache hits, %d executed", js.id, len(shards), hits, len(shards)-hits)
	return results, nil
}

// jobStream is a job's response: its shard frames in arrival order and
// its end frame's fields.
type jobStream struct {
	id     uint64
	state  JobState
	errMsg string
	shards []Event
}

// readJobStream reads an n-shard job's response stream. It accepts only a
// stream that re-encodes to its bytes: each shard once, then an end frame
// in a terminal state (done with every shard), then nothing.
func readJobStream(body io.Reader, n int) (*jobStream, error) {
	br := bufio.NewReader(body)
	js := &jobStream{}
	seen := make([]bool, n)
	for {
		p, err := dist.ReadFrameSum(br, nil)
		if err == io.EOF {
			return nil, errors.New("stream ended before the job did (daemon gone?); resubmit")
		}
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, errors.New("empty frame")
		}
		v, w := uvarintCanon(p[1:])
		if w <= 0 || len(p) < 2+w {
			return nil, fmt.Errorf("truncated frame of kind %d", p[0])
		}
		switch b := p[1+w]; p[0] {
		case streamShard:
			if v >= uint64(n) || seen[v] || b > 1 {
				return nil, fmt.Errorf("shard frame %x names no new shard of the %d-shard job", p[:2+w], n)
			}
			seen[v] = true
			js.shards = append(js.shards, Event{Shard: int(v), Cache: b == 1, result: p[2+w:]})
		case streamEnd:
			js.id, js.state, js.errMsg = v, JobState(b), string(p[2+w:])
			if !js.state.isFinal() && js.state != JobSuspended {
				return nil, fmt.Errorf("job %d ended in state %d", v, b)
			}
			if js.state == JobDone && len(js.shards) != n {
				return nil, fmt.Errorf("job %d done after %d of %d shards", v, len(js.shards), n)
			}
			if _, err := br.ReadByte(); err == nil {
				return nil, fmt.Errorf("job %d: bytes after its end frame", v)
			} else if err != io.EOF {
				return nil, fmt.Errorf("job %d: after its end frame: %w", v, err)
			}
			return js, nil
		default:
			return nil, fmt.Errorf("frame of unknown kind %d", p[0])
		}
	}
}

// Close implements dist.Backend; the client holds nothing to drain: each
// job is one request, and idle connections belong to HTTPClient.
func (c *Client) Close() error { return nil }
