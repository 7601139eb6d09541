package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	h := r.Histogram("t_lat_ns", "latency", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 5+10+11+99+5000 {
		t.Fatalf("hist sum = %d", h.Sum())
	}
}

func TestRegistryIdempotentAndTypeChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x")
	b := r.Counter("dup_total", "x")
	if a != b {
		t.Fatal("same name should return same counter")
	}
	l1 := r.Counter(`lbl_total{k="a"}`, "x")
	l2 := r.Counter(`lbl_total{k="b"}`, "x")
	if l1 == l2 {
		t.Fatal("different labels should be distinct samples")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict should panic")
		}
	}()
	r.Gauge("dup_total", "x")
}

func TestExposeFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_runs_total", "runs completed").Add(3)
	r.Counter(`e_wakeups_total{phase="explore"}`, "wakeups by phase").Add(9)
	r.Counter(`e_wakeups_total{phase="symmRV"}`, "wakeups by phase").Add(1)
	r.Gauge("e_depth", "queue depth").Set(2)
	h := r.Histogram("e_wait_ns", "wait", []uint64{100, 200})
	h.Observe(50)
	h.Observe(150)
	h.Observe(900)

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		"# HELP e_runs_total runs completed",
		"# TYPE e_runs_total counter",
		"e_runs_total 3",
		`e_wakeups_total{phase="explore"} 9`,
		`e_wakeups_total{phase="symmRV"} 1`,
		"# TYPE e_depth gauge",
		"e_depth 2",
		"# TYPE e_wait_ns histogram",
		`e_wait_ns_bucket{le="100"} 1`,
		`e_wait_ns_bucket{le="200"} 2`,
		`e_wait_ns_bucket{le="+Inf"} 3`,
		"e_wait_ns_sum 1100",
		"e_wait_ns_count 3",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("exposition missing line %q\n---\n%s", w, out)
		}
	}
	// One TYPE line per family, even with multiple labeled samples.
	if n := strings.Count(out, "# TYPE e_wakeups_total"); n != 1 {
		t.Errorf("TYPE e_wakeups_total emitted %d times, want 1", n)
	}
	// Every non-comment line is `name{labels} value` with integer value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1000, 4)
	want := []uint64{1000, 2000, 4000, 8000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b[i], want[i])
		}
	}
}

// ringModel is the timeline's reference: a ring preallocated at its
// capacity that overwrites oldest-first once full. It records tracks.
type ringModel struct {
	ring  []int64
	next  int
	total int
}

func (m *ringModel) add(track int64) {
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, track)
	} else {
		m.ring[m.next] = track
		m.next = (m.next + 1) % cap(m.ring)
	}
	m.total++
}

func (m *ringModel) events() (tracks []int64, dropped uint64) {
	tracks = append(slices.Clone(m.ring[m.next:]), m.ring[:m.next]...)
	return tracks, uint64(m.total - len(tracks))
}

// TestTimelineRingAndOrder pins the growing ring against ringModel at
// every capacity and event count around its growth and wrap points: the
// same events oldest-first, the same dropped count, and a ring that
// allocates nothing before the first event, then holds at most
// max(16, 2n) events' room after n events and never more than the
// capacity.
func TestTimelineRingAndOrder(t *testing.T) {
	for _, capacity := range []int{16, 20, 40, 4096} {
		counts := []int{0, 1, 15, 16, capacity - 1, capacity, capacity + 1, 3*capacity + 7}
		slices.Sort(counts)
		for _, n := range slices.Compact(counts) {
			t.Run(fmt.Sprintf("cap=%d/n=%d", capacity, n), func(t *testing.T) {
				tl := NewTimeline(capacity)
				if c := cap(tl.ring); c != 0 {
					t.Fatalf("new timeline holds room for %d events, want 0", c)
				}
				model := &ringModel{ring: make([]int64, 0, capacity)}
				for i := range n {
					tl.Instant("e", "t", int64(i), "")
					model.add(int64(i))
					if c, limit := cap(tl.ring), min(max(16, 2*(i+1)), capacity); c > limit {
						t.Fatalf("after %d events the ring has room for %d, want at most %d", i+1, c, limit)
					}
				}
				evs, dropped := tl.Events()
				want, wantDropped := model.events()
				if len(evs) != len(want) || dropped != wantDropped {
					t.Fatalf("%d events, %d dropped; want %d, %d", len(evs), dropped, len(want), wantDropped)
				}
				for i, ev := range evs {
					if ev.Track != want[i] {
						t.Fatalf("event %d track = %d, want %d", i, ev.Track, want[i])
					}
					if i > 0 && ev.Start < evs[i-1].Start {
						t.Fatalf("events out of time order at %d", i)
					}
				}
			})
		}
	}
}

// TestTimelineConcurrent records from several goroutines while others
// snapshot and export the timeline, across the ring's growth and wrap.
// Run it under -race. Every snapshot must hold each writer's events as
// one unbroken, oldest-first run of its sequence numbers.
func TestTimelineConcurrent(t *testing.T) {
	const writers, readers, perWriter, capacity = 4, 2, 500, 1000
	tl := NewTimeline(capacity)
	check := func(evs []Event) error {
		last := map[int64]int64{}
		for _, ev := range evs {
			if prev, ok := last[ev.Track]; ok && ev.Start != prev+1 {
				return fmt.Errorf("writer %d: event %d follows %d", ev.Track, ev.Start, prev)
			}
			last[ev.Track] = ev.Start
		}
		return nil
	}
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers) // each reader sends at most once
	for range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				evs, _ := tl.Events()
				if err := check(evs); err != nil {
					errs <- err
					return
				}
				if err := tl.WriteTrace(io.Discard); err != nil {
					errs <- err
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := range perWriter {
				tl.Add(Event{Name: "e", Track: int64(w), Start: int64(i), Dur: -1})
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	evs, dropped := tl.Events()
	if len(evs) != capacity || dropped != writers*perWriter-capacity {
		t.Fatalf("%d events, %d dropped; want %d, %d", len(evs), dropped, capacity, writers*perWriter-capacity)
	}
	if err := check(evs); err != nil {
		t.Fatal(err)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tl := NewTimeline(64)
	start := tl.Now()
	tl.Instant("dispatch", "shard", 3, "conn=0")
	tl.Span("shard", "shard", 3, start, "attempt=1")
	var b strings.Builder
	if err := tl.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int64   `json:"pid"`
			Tid  int64   `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(out.TraceEvents))
	}
	if out.TraceEvents[0].Ph != "i" || out.TraceEvents[1].Ph != "X" {
		t.Fatalf("phases = %q,%q want i,X", out.TraceEvents[0].Ph, out.TraceEvents[1].Ph)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ts < 0 || ev.Tid != 3 || ev.Pid != 1 || ev.Name == "" {
			t.Fatalf("bad event %+v", ev)
		}
	}
}
