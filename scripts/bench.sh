#!/usr/bin/env bash
# bench.sh — run the benchmark suite and emit a JSON perf record
# (ns/op, B/op, allocs/op, and — where reported — scheduler wakeups/op
# and dispatcher ns/case per benchmark) for the PR perf trajectory.
#
# Usage: scripts/bench.sh [output.json]   (default: BENCH_PR10.json)
#
# The emitted file contains a "baseline" section (the seed engine's
# numbers, recorded in scripts/seed-baseline.json) and a "current" section
# measured by this run: the root experiment suite plus the sim, view,
# rendezvous and uxs microbenchmarks that the engine rework targets. Every
# benchmark is sampled -count times and the per-benchmark MINIMUM ns/op is
# recorded: single 1x samples on a shared box swing by 2x and would defeat
# the benchdiff regression gate; the minimum is the standard noise floor.
#
# Compare two records with: go run ./cmd/benchdiff old.json new.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_PR10.json}"
count="${BENCH_COUNT:-5}"
# go test appends "-$GOMAXPROCS" to benchmark names — but only when
# GOMAXPROCS > 1. Resolve the actual value so the name extraction below
# strips exactly that suffix and nothing else (PR 1's record was mangled
# here: on a GOMAXPROCS=1 box there is no suffix, and an unconditional
# strip ate the sub-benchmark size instead — BenchmarkClasses/ring-8,
# /ring-32 and /ring-128 all collapsed to "BenchmarkClasses/ring").
procs="${GOMAXPROCS:-$(nproc)}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "== root experiment suite (count=$count)" >&2
go test -run '^$' -bench . -benchtime 1x -count "$count" -benchmem . | tee -a "$tmp"
echo "== sim engine microbenchmarks (incl. k-agent scheduler)" >&2
go test -run '^$' -bench 'BenchmarkScriptedWalk|BenchmarkPerMoveWalk|BenchmarkRoundThroughput|BenchmarkFastForward|BenchmarkMultiScriptedWalk' -count "$count" -benchmem ./sim/ | tee -a "$tmp"
echo "== obs hot-path overhead (atomic counter + instrumented shard run)" >&2
go test -run '^$' -bench 'BenchmarkObsCounter$' -count "$count" -benchmem ./internal/obs/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkInstrumentedShard' -count "$count" -benchmem ./sim/ | tee -a "$tmp"
echo "== view + rendezvous + uxs microbenchmarks" >&2
go test -run '^$' -bench 'BenchmarkClasses' -count "$count" -benchmem ./view/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkViewWalkBatched' -count "$count" -benchmem ./rendezvous/ | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkGenerate' -count "$count" -benchmem ./uxs/ | tee -a "$tmp"
echo "== dist dispatcher overhead (protocol + codec + pipelining)" >&2
go test -run '^$' -bench 'BenchmarkDistDispatch|BenchmarkShardCodec|BenchmarkDistPipelined' -count "$count" -benchmem ./dist/ | tee -a "$tmp"
echo "== rvd durability layer (store verified reads + WAL appends)" >&2
go test -run '^$' -bench 'BenchmarkCacheLookup|BenchmarkJournalAppend' -count "$count" -benchmem ./rvd/ | tee -a "$tmp"

{
  printf '{\n'
  printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "baseline": '
  sed 's/^/  /' scripts/seed-baseline.json | sed '1s/^  //'
  printf '  ,\n  "current": [\n'
  awk -v procs="$procs" '
    /^Benchmark/ {
      # Strip exactly one trailing "-<GOMAXPROCS>" (present only when
      # GOMAXPROCS > 1), keeping sub-benchmark size suffixes intact.
      name = $1
      if (procs + 0 > 1) {
        suffix = "-" procs
        if (length(name) > length(suffix) && substr(name, length(name) - length(suffix) + 1) == suffix) {
          name = substr(name, 1, length(name) - length(suffix))
        }
      }
      ns = ""; bytes = "null"; allocs = "null"; wakeups = "null"; nscase = "null"
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "wakeups/op") wakeups = $(i-1)
        if ($i == "ns/case") nscase = $(i-1)
      }
      if (ns != "") {
        if (!(name in minNs)) {
          order[++n] = name
          minNs[name] = ns + 0; minBytes[name] = bytes; minAllocs[name] = allocs; minWakeups[name] = wakeups; minNsCase[name] = nscase
        } else if (ns + 0 < minNs[name]) {
          minNs[name] = ns + 0; minBytes[name] = bytes; minAllocs[name] = allocs; minWakeups[name] = wakeups; minNsCase[name] = nscase
        }
      }
    }
    END {
      for (i = 1; i <= n; i++) {
        name = order[i]
        if (i > 1) printf ",\n"
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"wakeups_per_op\": %s, \"ns_per_case\": %s}", name, minNs[name], minBytes[name], minAllocs[name], minWakeups[name], minNsCase[name]
      }
      printf "\n"
    }
  ' "$tmp"
  printf '  ]\n}\n'
} > "$out"

echo "wrote $out" >&2
