package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runner drives one run's ops and keeps what the metrics need. Ops run
// one at a time on the calling goroutine: the closed loop's single client.
type runner struct {
	cfg config
	tr  *tracer       // traced runs only
	tb  *timedBackend // the current fleet wrapper, traced runs only

	gcEachOp bool // collect the heap and release it to the OS before each op, outside its timing

	setups   []float64 // set-up samples, seconds
	ops      int       // the run's op count
	probes   int       // cold set-up probes to spread across the run
	probeErr error     // the first probe failure

	attempted, failed int
	errs              []string      // the first few failures, for the report
	lat               []float64     // latency of each untraced op, ms
	rss               []float64     // peak RSS during each untraced op, MiB
	kinds             []string      // the op kind of each lat entry
	cpu               time.Duration // process CPU inside the untraced ops
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *runner) close() {
	if r.tr != nil {
		r.tr.close()
	}
}

// timeSetup runs one set-up and records its wall time as a setup_s sample.
func (r *runner) timeSetup(w workload) error {
	t0 := time.Now()
	err := w.setup(r)
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return err
}

// op runs one op. run does the op's work and is timed; tr is non-nil when
// the op is traced, and run then wraps its calls into each layer in
// spans. check verifies the op's output afterwards, outside the timed
// region. An op that errors or fails its check counts as failed. Only the
// op itself counts toward wall time and CPU: the benchmark's own input
// generation and checks do not. Each untraced op also records the
// process's peak RSS while it ran.
func (r *runner) op(kind string, traced bool, run func(tr *tracer) error, check func() error) {
	if r.probes > 0 && r.attempted%max(r.ops/r.probes, 1) == 0 && len(r.setups) <= r.probes {
		r.probe()
	}
	r.attempted++
	traced = traced && r.tr != nil
	if r.gcEachOp {
		debug.FreeOSMemory()
	}
	var tr *tracer
	var before snapshot
	var start int64
	if r.tr != nil {
		if r.tr.expo0 == "" {
			r.tr.expo0 = exposition()
		}
		before = takeSnapshot()
		if traced {
			tr = r.tr
			start = tr.now()
		}
		r.tb.begin(traced)
	}
	var rssErr error
	if !traced {
		rssErr = resetPeakRSS()
	}
	c0, t0 := cpuTime(), time.Now()
	err := run(tr)
	ms := float64(time.Since(t0)) / 1e6
	cpu := cpuTime() - c0
	rss := maxRSSMiB()
	if err == nil && rssErr != nil {
		err = fmt.Errorf("peak RSS reset: %w", rssErr)
	}
	if err == nil && check != nil {
		err = check()
	}
	if r.tr != nil {
		if rerr := r.tr.afterOp(r.tb, kind, traced, start, ms, before); err == nil {
			err = rerr
		}
	}
	if !traced {
		r.lat = append(r.lat, ms)
		r.rss = append(r.rss, rss)
		r.kinds = append(r.kinds, kind)
		r.cpu += cpu
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("op %d (%s): %v", r.attempted-1, kind, err))
		}
	}
}

// probe times one cold set-up in a fresh process of this program and
// waits for it to exit.
func (r *runner) probe() {
	if r.probeErr != nil {
		return
	}
	self, err := os.Executable()
	if err != nil {
		r.probeErr = err
		return
	}
	cmd := exec.Command(self, "--setup-only", "--workload", r.cfg.workload,
		"--seed", strconv.FormatUint(r.cfg.seed, 10), "--seconds", strconv.Itoa(r.cfg.seconds), "--out", r.cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err == nil {
		var s float64
		if s, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err == nil {
			r.setups = append(r.setups, s)
			return
		}
	}
	r.probeErr = fmt.Errorf("set-up probe: %w", err)
}

// endToEndNames are the untraced run's metrics, in report order.
var endToEndNames = []string{"ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op", "peak_rss_mb", "setup_s"}

// endToEnd computes the untraced run's metrics and writes them to the
// report with the run's shape: samples behind each percentile and the
// set-up samples behind setup_s.
func (r *runner) endToEnd(b *strings.Builder) map[string]metric {
	n := len(r.lat)
	fmt.Fprintf(b, "op latency: %d samples; %d beyond p50, %d beyond p90\n", n, beyond(n, 0.5), beyond(n, 0.9))
	fmt.Fprintf(b, "setup_s: median of %d set-ups %v\n", len(r.setups), fmtSamples(r.setups))
	m := map[string]metric{
		"ops_per_s":     {float64(n) / (sum(r.lat) / 1e3), "ops/s"},
		"op_ms_p50":     {percentile(r.lat, 0.5), "ms"},
		"op_ms_p90":     {percentile(r.lat, 0.9), "ms"},
		"cpu_ms_per_op": {float64(r.cpu) / 1e6 / float64(n), "ms"},
		"peak_rss_mb":   {median(r.rss), "MiB"},
		"setup_s":       {median(r.setups), "s"},
	}
	for _, name := range endToEndNames {
		fmt.Fprintf(b, "  %-14s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	if r.cfg.workload == "daemon" {
		for _, kind := range []string{"cold", "warm"} {
			xs := r.latOf(kind)
			fmt.Fprintf(b, "%s jobs: %d samples (%d beyond p90)  p50 %.4f ms  p90 %.4f ms\n",
				kind, len(xs), beyond(len(xs), 0.9), percentile(xs, 0.5), percentile(xs, 0.9))
		}
	}
	return m
}

// latOf returns the untraced latencies of one op kind.
func (r *runner) latOf(kind string) []float64 {
	var xs []float64
	for i, k := range r.kinds {
		if k == kind {
			xs = append(xs, r.lat[i])
		}
	}
	return xs
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
