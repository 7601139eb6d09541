// Command rvd runs the crash-safe rendezvous daemon: it owns a dist
// worker fleet and a persistent result store under -dir, serves sweep
// jobs over HTTP (see package rvd for the API), and survives kill -9 —
// on restart it reloads the store index and re-dials workers with
// backoff, and a resubmitted sweep is served every shard stored before
// the crash as a cache hit.
//
// Usage:
//
//	rvd -dir STATE [-listen 127.0.0.1:7421]
//	    [-workers N | -dist-addrs host:port,...] [-dist-worker-bin "cmd args..."]
//	    [-dist-respawn N] [-dist-max-attempts N]
//	    [-queue-bound N] [-batch-shards N]
//	    [-pprof] [-log-level info]
//
// The daemon serves Prometheus text metrics at GET /metrics (the
// process-wide obs registry: sim engine, dist coordinator, and rvd
// job/store/queue families) and per-job Chrome trace timelines at
// GET /v1/sweeps/{id}/trace. -pprof additionally mounts net/http/pprof
// under /debug/pprof/ on the same listener; -log-level sets the
// log/slog threshold (debug shows per-batch dispatch lines).
//
// With -workers N the daemon forks N local worker processes (re-execing
// itself as the worker unless -dist-worker-bin names one); -dist-addrs
// connects to already-running `rvworker -listen` processes, retrying
// each address with capped exponential backoff + jitter so workers that
// restart slower than the daemon are absorbed. SIGTERM/SIGINT shut down
// gracefully: the daemon closes first — it refuses new jobs, finishes the
// in-flight batch and starts no other, and ends each incomplete job
// suspended, which closes that job's open response stream (its submitter
// resubmits after the restart) — then the HTTP server shuts down, with no
// stream left to wait for, and worker connections close.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/dist"
	"repro/experiments"
	"repro/rvd"
)

// versionStamp folds the shard-codec and program-registry generations
// into every cache key (see rvd.CacheKey): results computed by an
// incompatible binary live in a different key space entirely. It names
// dist.CodecVersion, not dist.ProtoVersion, because keys hash descriptor
// bytes and values are result bytes: a framing-only protocol bump leaves
// both unchanged. The text keeps the "proto=" label of the stores keyed
// under protocol v4, so their entries stay reachable.
func versionStamp() string {
	return fmt.Sprintf("rvd proto=%d registry=%d", dist.CodecVersion, experiments.RegistryVersion)
}

func main() {
	// When forked as our own worker, serve the protocol and never reach
	// flag parsing.
	dist.RunWorkerIfChild()

	dir := flag.String("dir", "", "state directory (holds the result store); required")
	listen := flag.String("listen", "127.0.0.1:7421", "HTTP listen address")
	workers := flag.Int("workers", 0, "fork this many local worker processes (default: in-process workers, one per CPU)")
	workerBin := flag.String("dist-worker-bin", "", "worker command for -workers, split on whitespace (default: re-exec rvd itself)")
	distAddrs := flag.String("dist-addrs", "", "comma-separated rvworker -listen addresses to dispatch shards to")
	distRespawn := flag.Int("dist-respawn", 0, "fork up to this many replacement workers when one dies mid-sweep (local workers only)")
	distMaxAttempts := flag.Int("dist-max-attempts", 0, "redispatch a shard at most this many times after worker deaths")
	dialAttempts := flag.Int("dial-attempts", 8, "connection attempts per -dist-addrs address (capped exponential backoff + jitter)")
	queueBound := flag.Int("queue-bound", 4096, "admission control: shed submissions past this many pending shards (503 + Retry-After)")
	batchShards := flag.Int("batch-shards", 16, "shards per fleet dispatch batch (smaller = fairer job interleaving)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP listener")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, or error")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		logger.Fatalf("rvd: bad -log-level %q: %v", *logLevel, err)
	}
	slogger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if *dir == "" {
		logger.Fatal("rvd: -dir STATE is required")
	}

	var distOpts []dist.Option
	if *distMaxAttempts > 0 {
		distOpts = append(distOpts, dist.WithTuning(dist.Tuning{MaxAttempts: *distMaxAttempts}))
	}

	var backend dist.Backend
	var err error
	switch {
	case *distAddrs != "":
		backend, err = dist.DialWith(dist.DialRetry{Attempts: *dialAttempts},
			strings.Split(*distAddrs, ","), distOpts...)
	case *workers > 0:
		if *distRespawn > 0 {
			distOpts = append(distOpts, dist.WithRespawn(*distRespawn))
		}
		backend, err = dist.NewLocal(*workers, strings.Fields(*workerBin), distOpts...)
	default:
		backend = dist.NewInProcess(runtime.NumCPU(), distOpts...)
	}
	if err != nil {
		logger.Fatalf("rvd: %v", err)
	}

	daemon, err := rvd.Open(rvd.Config{
		Dir:          *dir,
		Backend:      backend,
		VersionStamp: versionStamp(),
		QueueBound:   *queueBound,
		BatchShards:  *batchShards,
		Log:          slogger,
	})
	if err != nil {
		backend.Close()
		logger.Fatalf("rvd: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		daemon.Close()
		backend.Close()
		logger.Fatalf("rvd: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", daemon.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	slogger.Info("rvd: serving", "addr", ln.Addr().String(), "state", *dir,
		"stamp", versionStamp(), "pprof", *pprofOn)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		slogger.Info("rvd: draining and shutting down", "signal", sig.String())
	case err := <-errc:
		slogger.Error("rvd: http server failed", "err", err)
	}

	// Graceful shutdown: close the daemon first, so it finishes only the
	// in-flight batch and suspends the jobs still incomplete, whose
	// streams then end; the HTTP server's Shutdown, which waits for open
	// streams, follows. Shutdown first would wait out its timeout on every
	// open job stream while the scheduler kept dispatching batches.
	if err := daemon.Close(); err != nil {
		slogger.Warn("rvd: closing daemon", "err", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := backend.Close(); err != nil {
		slogger.Warn("rvd: closing fleet", "err", err)
	}
	slogger.Info("rvd: shutdown complete")
}
