package dist_test

// Trace-export round trip: run a distributed sweep, export the
// coordinator's shard-lifecycle timeline as Chrome trace-event JSON,
// and validate both the schema (the fields Perfetto loads) and the
// per-shard span ordering — every shard gets a dispatch instant and a
// closing span, with span start <= dispatch <= span end.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/dist"
	"repro/graph"
)

func tracePlan() *dist.Planner {
	p := &dist.Planner{}
	graphs := []*graph.Graph{
		graph.Cycle(6),
		graph.Path(5),
		graph.Star(4),
	}
	for gi, g := range graphs {
		for flavor := 0; flavor < 2; flavor++ {
			key := [2]int{gi, flavor}
			p.Add(key, g, dist.CaseDesc{
				Kind:   dist.KindTwoAgent,
				ProgA:  dist.ProgDesc{Name: "universal"},
				ProgB:  dist.ProgDesc{Name: "randomwalk", Args: []uint64{uint64(700 + 3*gi + flavor)}},
				U:      0,
				V:      g.N() - 1,
				Delay:  uint64(2 * flavor),
				Budget: 300,
			})
		}
	}
	return p
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestTraceExportRoundTrip(t *testing.T) {
	p := tracePlan()
	be := dist.NewInProcess(2)
	defer be.Close()
	if _, err := p.Run(be); err != nil {
		t.Fatal(err)
	}
	nshards := len(p.Shards())
	if nshards < 2 {
		t.Fatalf("plan built only %d shards", nshards)
	}

	var buf bytes.Buffer
	if err := dist.WriteTrace(be, &buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Schema: every event carries the fields the trace-event format
	// requires, with a known phase.
	for i, ev := range out.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if ev.Ph != "X" && ev.Ph != "i" {
			t.Fatalf("event %d has phase %q, want X or i", i, ev.Ph)
		}
		if ev.Ts < 0 {
			t.Fatalf("event %d has negative ts", i)
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("event %d span has negative dur", i)
		}
		if ev.Pid != 1 {
			t.Fatalf("event %d pid = %d, want 1", i, ev.Pid)
		}
	}

	// Lifecycle: per shard track, exactly one closing span (fault-free
	// run) plus a dispatch instant within it.
	type track struct {
		span     *chromeEvent
		dispatch *chromeEvent
	}
	tracks := map[int64]*track{}
	for i := range out.TraceEvents {
		ev := &out.TraceEvents[i]
		if ev.Cat != "shard" {
			continue
		}
		tr := tracks[ev.Tid]
		if tr == nil {
			tr = &track{}
			tracks[ev.Tid] = tr
		}
		switch ev.Name {
		case "shard":
			if tr.span != nil {
				t.Fatalf("shard %d has two spans in a fault-free run", ev.Tid)
			}
			tr.span = ev
		case "dispatch":
			tr.dispatch = ev
		}
	}
	if len(tracks) != nshards {
		t.Fatalf("trace covers %d shard tracks, want %d", len(tracks), nshards)
	}
	for tid, tr := range tracks {
		if tr.span == nil || tr.dispatch == nil {
			t.Fatalf("shard %d incomplete lifecycle: span=%v dispatch=%v",
				tid, tr.span != nil, tr.dispatch != nil)
		}
		if tr.span.Dur <= 0 {
			t.Fatalf("shard %d span has non-positive duration %v", tid, tr.span.Dur)
		}
		end := tr.span.Ts + tr.span.Dur
		if tr.dispatch.Ts < tr.span.Ts || tr.dispatch.Ts > end {
			t.Fatalf("shard %d dispatch ts %v outside span [%v, %v]", tid, tr.dispatch.Ts, tr.span.Ts, end)
		}
	}

	// The run delimiters are present.
	var runStart, runEnd bool
	for _, ev := range out.TraceEvents {
		if ev.Cat == "run" && ev.Name == "run-start" {
			runStart = true
		}
		if ev.Cat == "run" && ev.Name == "run-end" {
			runEnd = true
		}
	}
	if !runStart || !runEnd {
		t.Fatalf("missing run delimiters: start=%v end=%v", runStart, runEnd)
	}
}

// TestTraceAccumulatesAcrossRuns pins the backend-lifetime semantics:
// two Runs on one backend append into one timeline, so rvx -trace
// exports a whole regeneration, not just the last experiment.
func TestTraceAccumulatesAcrossRuns(t *testing.T) {
	p := tracePlan()
	be := dist.NewInProcess(2)
	defer be.Close()
	for i := 0; i < 2; i++ {
		if _, err := p.Run(be); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := dist.WriteTrace(be, &buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, ev := range out.TraceEvents {
		if ev.Name == "run-start" {
			starts++
		}
	}
	if starts != 2 {
		t.Fatalf("trace has %d run-start markers, want 2", starts)
	}
}
