package rvd

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/dist"
)

// Client submits sweeps to a running rvd daemon over its HTTP API. It
// implements dist.Backend, so `rvx -daemon ADDR` is one SetDistBackend
// call away from routing every sweep through the daemon's cache: Run
// encodes the shards, POSTs them as one job, tails the event stream, and
// fetches each shard's result bytes from the store — the caller cannot
// tell (except in wall-clock time) whether a shard was executed or
// cache-hit.
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

// Run implements dist.Backend: one call is one daemon job.
func (c *Client) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	if len(shards) == 0 {
		return nil, nil
	}
	req := submitRequest{Shards: make([]string, len(shards))}
	for i, sh := range shards {
		req.Shards[i] = base64.StdEncoding.EncodeToString(sh.Encode())
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	var sub submitResponse
	for attempt := 0; ; attempt++ {
		resp, err := c.httpClient().Post(c.BaseURL+"/v1/sweeps", "application/json", bytes.NewReader(body))
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
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return nil, fmt.Errorf("rvd: submit rejected: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("rvd: decoding submit response: %w", err)
		}
		break
	}

	// Tail the event stream until the terminal line, collecting each
	// shard's cache key as its completion is announced.
	resp, err := c.httpClient().Get(fmt.Sprintf("%s/v1/sweeps/%d/events", c.BaseURL, sub.ID))
	if err != nil {
		return nil, fmt.Errorf("rvd: streaming job %d events: %w", sub.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rvd: job %d events: %s", sub.ID, resp.Status)
	}

	keys := make([]string, len(shards))
	hits, executed := 0, 0
	terminal := ""
	var terminalErr string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line eventLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("rvd: job %d event stream: %w", sub.ID, err)
		}
		if line.State != "" {
			terminal, terminalErr = line.State, line.Err
			break
		}
		if line.Shard == nil || *line.Shard < 0 || *line.Shard >= len(shards) {
			return nil, fmt.Errorf("rvd: job %d: event for shard out of range", sub.ID)
		}
		keys[*line.Shard] = line.Key
		if line.Cache != nil && *line.Cache {
			hits++
		} else {
			executed++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rvd: job %d event stream: %w", sub.ID, err)
	}
	switch terminal {
	case "done":
		// All shards complete.
	case "failed":
		return nil, fmt.Errorf("rvd: job %d failed: %s", sub.ID, terminalErr)
	case "suspended":
		return nil, fmt.Errorf("rvd: job %d suspended by daemon shutdown; resubmit after restart", sub.ID)
	default:
		return nil, fmt.Errorf("rvd: job %d event stream ended without terminal state", sub.ID)
	}
	c.logf("rvd: job %d: %d shards, %d cache hits, %d executed", sub.ID, len(shards), hits, executed)

	// Fetch result bytes per shard from the store.
	results := make([]*dist.ShardResult, len(shards))
	for i, key := range keys {
		if key == "" {
			return nil, fmt.Errorf("rvd: job %d: shard %d completed without a key", sub.ID, i)
		}
		resp, err := c.httpClient().Get(c.BaseURL + "/v1/results/" + key)
		if err != nil {
			return nil, fmt.Errorf("rvd: fetching shard %d result: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("rvd: fetching shard %d result: %s", i, resp.Status)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("rvd: reading shard %d result: %w", i, err)
		}
		sr := new(dist.ShardResult)
		if err := sr.Decode(raw); err != nil {
			return nil, fmt.Errorf("rvd: decoding shard %d result: %w", i, err)
		}
		results[i] = sr
	}
	return results, nil
}

// Close implements dist.Backend; the client holds no connections worth
// draining (each request is its own).
func (c *Client) Close() error { return nil }
