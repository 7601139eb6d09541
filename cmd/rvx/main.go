// Command rvx regenerates the paper's 19 experiment tables E1-E19: the
// worked examples, lemma-by-lemma behavioural checks, the Q̂h lower-bound
// construction, and the baseline comparisons. The quick tables are
// recorded in experiments/testdata/tables.md.
//
// Usage:
//
//	rvx [-full] [-markdown] [-only E4,E7]
//	    [-dist-workers N] [-dist-worker-bin "path args..."]
//	    [-dist-addrs host:port,...] [-dist-respawn N] [-dist-max-attempts N]
//	    [-daemon host:port] [-trace out.json]
//
// -trace writes the dist coordinator's shard-lifecycle timeline (queue,
// dispatch, completion, plus requeue events, accumulated across every
// sweep of the regeneration) as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing. It needs a coordinator in this process,
// so it is incompatible with -daemon.
//
// -full enables the heavier variants (ring-4 UniversalRV in E7, the
// million-node Q̂12 build in E9). -markdown emits GitHub tables (the format
// of experiments/testdata/tables.md); the default is fixed-width text.
// -only runs just the named experiments, in registry order; an ID the
// registry does not know is an error (exit 2), checked before anything
// runs.
//
// The distributable sweeps (E7, E12, E17) run on in-process protocol
// workers by default. -dist-workers N forks N worker processes on this
// machine instead — rvx re-execs itself as the worker unless
// -dist-worker-bin names a worker command (split on whitespace, so
// `rvworker -crash-after 2` works) — and -dist-addrs connects to
// already-running `rvworker -listen` processes (one connection per
// address; repeat an address for more parallelism on one host).
// -dist-respawn lets the local fleet fork up to N replacement workers
// when one dies mid-sweep, and -dist-max-attempts bounds how many times
// one shard may be redispatched after worker deaths (a shard stranded on
// a dying worker re-executes from case zero on a survivor). The
// dispatcher's aggregation is byte-identical across all modes, faults
// and requeues included, so the tables come out the same however the
// sweeps were executed — the CI chaos smoke pins exactly that, with
// crash-injected workers being respawned under a real rvx run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/dist"
	"repro/experiments"
	"repro/rvd"
)

func main() {
	// When forked by dist.NewLocal as our own worker, serve the protocol
	// and never reach flag parsing.
	dist.RunWorkerIfChild()

	full := flag.Bool("full", false, "run the heavier experiment variants")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E4,E7); default all")
	distWorkers := flag.Int("dist-workers", 0, "fork this many local worker processes for the distributable sweeps")
	distWorkerBin := flag.String("dist-worker-bin", "", "worker command for -dist-workers, split on whitespace (default: re-exec rvx itself)")
	distAddrs := flag.String("dist-addrs", "", "comma-separated rvworker -listen addresses to dispatch sweeps to")
	distRespawn := flag.Int("dist-respawn", 0, "fork up to this many replacement workers when one dies mid-sweep (local workers only)")
	distMaxAttempts := flag.Int("dist-max-attempts", 0, "redispatch a shard at most this many times after worker deaths (default: protocol default)")
	daemonAddr := flag.String("daemon", "", "submit the distributable sweeps to a running rvd daemon at this address instead of computing locally")
	tracePath := flag.String("trace", "", "write the dist shard-lifecycle timeline to this file as Chrome trace-event JSON (Perfetto-loadable)")
	flag.Parse()

	reg := experiments.Registry(*full)
	want := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, e := range reg {
			known[e.ID] = true
		}
		for _, raw := range strings.Split(*only, ",") {
			id := strings.ToUpper(strings.TrimSpace(raw))
			if !known[id] {
				fmt.Fprintf(os.Stderr, "rvx: -only: unknown experiment %q (the registry holds E1-E%d)\n", raw, len(reg))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	var distOpts []dist.Option
	if *distMaxAttempts > 0 {
		distOpts = append(distOpts, dist.WithTuning(dist.Tuning{MaxAttempts: *distMaxAttempts}))
	}
	var backend dist.Backend
	switch {
	case *daemonAddr != "":
		base := *daemonAddr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		backend = &rvd.Client{BaseURL: base, Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}}
	case *distAddrs != "":
		be, err := dist.Dial(strings.Split(*distAddrs, ","), distOpts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvx: %v\n", err)
			os.Exit(1)
		}
		backend = be
	case *distWorkers > 0:
		// The worker flag is a command line, not just a binary: splitting
		// on whitespace lets the chaos smoke pass `rvworker -crash-after 2`.
		argv := strings.Fields(*distWorkerBin)
		if *distRespawn > 0 {
			distOpts = append(distOpts, dist.WithRespawn(*distRespawn))
		}
		be, err := dist.NewLocal(*distWorkers, argv, distOpts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvx: %v\n", err)
			os.Exit(1)
		}
		backend = be
	}
	if *tracePath != "" && backend == nil {
		// -trace needs the coordinator's timeline in this process: stand
		// up the same in-process fleet the default path would use.
		backend = dist.NewInProcess(0, distOpts...)
	}
	if backend != nil {
		defer backend.Close()
		experiments.SetDistBackend(backend)
	}

	failures := 0
	for _, e := range reg {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tbl := e.Run()
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Text())
		}
		fmt.Println()
		failures += len(tbl.Failed)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, backend); err != nil {
			fmt.Fprintf(os.Stderr, "rvx: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rvx: wrote dist trace timeline to %s\n", *tracePath)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "rvx: %d experiment checks FAILED\n", failures)
		os.Exit(1)
	}
}

// writeTrace exports the backend's shard-lifecycle timeline as Chrome
// trace-event JSON. Backends without a local coordinator (the rvd
// daemon client) have no timeline; dist.WriteTrace reports that.
func writeTrace(path string, be dist.Backend) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dist.WriteTrace(be, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
