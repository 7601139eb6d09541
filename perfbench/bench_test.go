package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// countMetrics are the per-layer metrics that count work rather than time
// it. Each is a deterministic function of the workload and its seed, so
// two runs of the same code must report them identically: a count that
// moves without a code change is a benchmark bug.
var countMetrics = []string{
	"sim.rounds_per_op", "sim.wakeups_per_op",
	"sim.runs_pair_per_op", "sim.runs_multi_per_op", "sim.runs_batch_per_op", "sim.wakeups_total_per_op",
	"dist.encoded_bytes_per_op", "dist.shards_per_op", "dist.cases_per_op",
	"dist.chunks_per_op", "dist.requeues_per_op",
	"rvd.journal_appends_per_job", "rvd.hit_ratio", "rvd.store_entries_end",
	"rvd.store_written_kb_per_cold_job", "rvd.store_read_kb_per_warm_job",
}

// TestCountsRepeat runs each workload traced for a few ops, twice, and
// requires every count metric to match exactly, every op to pass its
// correctness gate and the layer sums to close.
func TestCountsRepeat(t *testing.T) {
	for _, tc := range []struct {
		workload string
		ops      int
	}{{"tables", 4}, {"sweeps", 6}, {"daemon", daemonJobsPerSegment}} {
		t.Run(tc.workload, func(t *testing.T) {
			spec, _ := specFor(tc.workload)
			var runs [2]*result
			for i := range runs {
				cfg := config{workload: tc.workload, seed: 7, seconds: 1, trace: true, out: t.TempDir()}
				res, report, err := runWorkload(spec, cfg, tc.ops, 0)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != tc.ops {
					t.Fatalf("run %d: correct=%v failed=%d attempted=%d\n%s", i, res.Correct, res.Failed, res.Attempted, report)
				}
				runs[i] = res
			}
			for _, name := range countMetrics {
				a, b := runs[0].Metrics[name], runs[1].Metrics[name]
				if a != b {
					t.Errorf("%s: %v then %v", name, a.Value, b.Value)
				}
			}
			if got := runs[0].Metrics["dist.requeues_per_op"].Value; got != 0 {
				t.Errorf("dist.requeues_per_op = %v, want 0", got)
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to what the
// program reports: every end-to-end metric from an untraced run, every
// per-layer metric from a traced one, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v, program has %v", names, specNames)
	}

	spec, _ := specFor("sweeps")
	res, _, err := runWorkload(spec, config{workload: "sweeps", seed: 1, seconds: 1, out: t.TempDir()}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(bj.EndToEnd) {
		t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerMetrics) != len(bj.PerLayer) {
		t.Errorf("program reports %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(bj.PerLayer))
	}
	for i, m := range bj.PerLayer {
		if i < len(layerMetrics) && (layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
