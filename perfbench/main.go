// Command perfbench is the repository benchmark. It drives one of three
// closed-loop, single-client workloads through the system's public entry
// points, checks every op's output, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	tables  op = one `rvx -markdown` regeneration of the 19 quick tables
//	sweeps  op = the production sweeps E7, E12 and E17
//	daemon  op = one rvd job; a seeded mix of one cold job per three warm
//
// run.sh builds the program from the checkout's sources and runs it:
//
//	bash perfbench/run.sh --workload sweeps --seed 1 --seconds 20 --trace 0
//
// A run is a fixed sequence of ops: --seconds times the workload's nominal
// rate on the reference host (2 CPUs), never a time window, so the work a
// run does does not depend on how fast the code is. --trace 0 reports the
// end-to-end metrics; its setup_s is the median of the run's own cold
// set-up and setupProbes more, each timed in a fresh process that the run
// starts between ops, spread evenly across the run. --trace 1 is a
// separate run that reports the per-layer metrics, prints the closure
// report and writes a Chrome trace (Perfetto-loadable) under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// setupProbes is how many cold set-ups an untraced run times in fresh
// processes besides its own. They are spread across the run because the
// host's fsync and wake-up latency move in spells of seconds: a daemon
// set-up, a few fsyncs, took 2.2-2.9 ms in five back-to-back processes
// and 8.3-11.9 ms in five more a run later.
const setupProbes = 8

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // output directory inside the checkout: traces, daemon state
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one closed-loop op stream over the system.
type workload interface {
	// setup brings the system up: the start-up a user pays before the
	// first timed op, a cold first op included where users pay one. It
	// is timed as one setup_s sample.
	setup(r *runner) error
	// run executes the run's ops after setup.
	run(r *runner, ops int) error
	// teardown releases everything setup acquired.
	teardown()
}

// workloadSpec names a workload and fixes its run length: ops per run is
// --seconds times opsPerSec, rounded up to a multiple of unit. gcEachOp
// starts each op from a collected heap with its free pages returned to the
// OS, as a one-shot process starts with none resident; the op then pays
// the page faults such a process pays. tables needs it: an op allocates
// ~130 MB (E15 ~110 MB), and without it an op's peak RSS depends on the GC
// phase it inherits and on what earlier ops left resident. peak_rss_mb is
// the median of the ops' own peaks, not the run's maximum, which rode on
// E15's worst GC overshoot of ~100 ops and spread ~20% between runs.
type workloadSpec struct {
	name      string
	opsPerSec float64
	unit      int
	gcEachOp  bool
	make      func(cfg config) workload
}

var specs = []workloadSpec{
	{"tables", 10, 2, true, func(cfg config) workload { return &tablesWorkload{} }},
	{"sweeps", 35, 2, false, func(cfg config) workload { return &sweepsWorkload{} }},
	{"daemon", daemonJobsPerSec, daemonJobsPerSegment, false, func(cfg config) workload { return newDaemonWorkload(cfg) }},
}

func specFor(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// opsFor returns the fixed op count of a run of the given nominal length.
func (s workloadSpec) opsFor(seconds int) int {
	n := int(math.Ceil(float64(seconds) * s.opsPerSec))
	n = (n + s.unit - 1) / s.unit * s.unit
	if n < s.unit {
		n = s.unit
	}
	return n
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: tables, sweeps or daemon")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (drives the daemon's job sequence)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal run length in seconds; fixes the op count")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and daemon state")
	setupOnly := flag.Bool("setup-only", false, "time one cold set-up, print its seconds and exit")
	flag.Parse()
	cfg.trace = *trace == 1

	spec, ok := specFor(cfg.workload)
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload tables|sweeps|daemon, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *setupOnly {
		s, err := probeSetup(spec, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(s, 'f', -1, 64))
		return
	}
	probes := setupProbes
	if cfg.trace {
		probes = 0
	}
	res, report, err := runWorkload(spec, cfg, spec.opsFor(cfg.seconds), probes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// probeSetup times one set-up in this (fresh) process and tears it down.
// A run starts it in several processes, so setup_s is a median over cold
// processes rather than one sample: the set-up users pay is a cold
// process's, and in-process repeats would be warm.
func probeSetup(spec workloadSpec, cfg config) (float64, error) {
	r := newRunner(cfg)
	defer r.close()
	w := spec.make(cfg)
	err := r.timeSetup(w)
	w.teardown()
	if err != nil {
		return 0, err
	}
	return r.setups[0], nil
}

// runWorkload performs one run: set-up, the fixed sequence of ops with
// probes cold set-up probes spread between them, teardown, then the
// metrics. It returns the JSON result and a human-readable report that
// states the run's shape next to its metrics.
func runWorkload(spec workloadSpec, cfg config, ops, probes int) (*result, string, error) {
	r := newRunner(cfg)
	defer r.close()
	r.gcEachOp = spec.gcEachOp
	r.ops, r.probes = ops, probes
	w := spec.make(cfg)
	if err := r.timeSetup(w); err != nil {
		w.teardown()
		return nil, "", fmt.Errorf("set-up: %w", err)
	}
	err := w.run(r, ops)
	if r.tr != nil && err == nil {
		r.tr.heapLiveMB = liveHeapMiB()
		w.teardown()
		if cfg.workload == "daemon" {
			r.tr.daemonHeapMB = r.tr.heapLiveMB - liveHeapMiB()
		}
	} else {
		w.teardown()
	}
	if err == nil {
		err = r.probeErr
	}
	if err != nil {
		return nil, "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  GOMAXPROCS %d  ops/run %d  traced %v\n",
		cfg.workload, cfg.seed, runtime.GOMAXPROCS(0), r.attempted, cfg.trace)
	res := &result{Attempted: r.attempted, Failed: r.failed}
	res.Correct = r.failed == 0 && r.attempted > 0
	if cfg.trace {
		res.Metrics = r.perLayer(&b)
		if err := r.closure(&b); err != nil {
			res.Correct = false
			fmt.Fprintf(&b, "closure FAILED: %v\n", err)
		}
		path := filepath.Join(cfg.out, cfg.workload+"-trace.json")
		if err := r.tr.write(path); err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&b, "chrome trace: %s\n", path)
	} else {
		res.Metrics = r.endToEnd(&b)
	}
	for _, e := range r.errs {
		fmt.Fprintf(&b, "op FAILED: %s\n", e)
	}
	fmt.Fprintf(&b, "fail_ratio %g (%d of %d ops)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	return res, b.String(), nil
}
