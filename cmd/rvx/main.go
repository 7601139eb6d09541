// Command rvx regenerates the experiment tables E1-E12 recorded in
// EXPERIMENTS.md: the paper's worked examples, lemma-by-lemma behavioural
// checks, the Q̂h lower-bound construction, and the baseline comparisons.
//
// Usage:
//
//	rvx [-full] [-markdown] [-only E4,E7] [-resume PATH] [-checkpoint-every N]
//	    [-dist-workers N] [-dist-worker-bin "path args..."]
//	    [-dist-addrs host:port,...] [-dist-respawn N] [-dist-max-attempts N]
//	    [-trace out.json]
//
// -trace writes the dist coordinator's shard-lifecycle timeline (queue,
// dispatch, first chunk, completion, plus requeue/heartbeat events,
// accumulated across every sweep of the regeneration) as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing. It needs a
// coordinator in this process, so it is incompatible with -daemon.
//
// -full enables the heavier variants (ring-4 UniversalRV in E7, the
// million-node Q̂12 build in E9). -markdown emits GitHub tables (the format
// of EXPERIMENTS.md); the default is fixed-width text.
//
// -resume PATH names a checkpoint file: experiments it records as
// complete render from the file without re-executing, and (with
// -checkpoint-every N) every N newly-finished experiments rewrite it
// atomically — so a long -full regeneration interrupted at E9 resumes at
// E9, with output identical to an uninterrupted run.
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
	"os/signal"
	"strings"
	"sync"
	"syscall"

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
	resumePath := flag.String("resume", "", "checkpoint file: skip experiments it records as complete, and save new ones to it")
	checkpointEvery := flag.Int("checkpoint-every", 0, "with -resume, save the checkpoint file after every N newly-executed experiments")
	tracePath := flag.String("trace", "", "write the dist shard-lifecycle timeline to this file as Chrome trace-event JSON (Perfetto-loadable)")
	flag.Parse()

	if *checkpointEvery > 0 && *resumePath == "" {
		fmt.Fprintln(os.Stderr, "rvx: -checkpoint-every requires -resume PATH (the file to save to)")
		os.Exit(2)
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

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	// With -resume, previously-completed experiments load from the
	// checkpoint file and render without re-executing; freshly-executed
	// ones are saved back every -checkpoint-every completions (and at
	// exit), so an interrupted regeneration resumes where it stopped.
	loaded := map[string]*experiments.Table{}
	if *resumePath != "" {
		var err error
		if loaded, err = loadCheckpoint(*resumePath); err != nil {
			fmt.Fprintf(os.Stderr, "rvx: %v\n", err)
			os.Exit(1)
		}
	}
	save := func(done []*experiments.Table) {
		if err := saveCheckpoint(*resumePath, done); err != nil {
			fmt.Fprintf(os.Stderr, "rvx: saving checkpoint: %v\n", err)
			os.Exit(1)
		}
	}

	// Interrupt trap: SIGINT/SIGTERM flushes the checkpoint file (when
	// -resume names one) and drains the dist backend before exit, so an
	// interrupted run loses nothing since its last completed experiment
	// instead of everything since the last -checkpoint-every boundary.
	// The mutex orders the flush against the main loop's appends; an
	// experiment mid-run is simply not in done yet and re-executes on
	// resume.
	var mu sync.Mutex
	var done []*experiments.Table
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		mu.Lock()
		fmt.Fprintf(os.Stderr, "rvx: %v: flushing checkpoint and draining dist backend\n", sig)
		if *resumePath != "" && len(done) > 0 {
			save(done)
		}
		if backend != nil {
			backend.Close()
		}
		if s, ok := sig.(syscall.Signal); ok {
			os.Exit(128 + int(s))
		}
		os.Exit(1)
	}()

	failures := 0
	fresh := 0
	for _, e := range experiments.Registry(*full) {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tbl, ok := loaded[e.ID]
		if !ok {
			tbl = e.Run()
			fresh++
		}
		mu.Lock()
		done = append(done, tbl)
		mu.Unlock()
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Text())
		}
		fmt.Println()
		failures += len(tbl.Failed)
		if *checkpointEvery > 0 && fresh >= *checkpointEvery {
			mu.Lock()
			save(done)
			mu.Unlock()
			fresh = 0
		}
	}
	if *checkpointEvery > 0 && fresh > 0 {
		mu.Lock()
		save(done)
		mu.Unlock()
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
