package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one timeline entry: a span (Dur >= 0) or an instant
// (Dur < 0) on a track. Start and Dur are nanoseconds relative to the
// timeline's epoch, taken from the monotonic clock.
type Event struct {
	Name  string // event name, e.g. "shard" or "requeue"
	Cat   string // category, e.g. "shard", "conn", "job"
	Track int64  // Chrome trace tid; shard index or conn id
	Start int64  // ns since timeline epoch
	Dur   int64  // span duration in ns; < 0 marks an instant event
	Arg   string // optional free-form detail, exported as args.detail
}

// Timeline is a bounded, concurrency-safe ring buffer of trace events
// that grows on demand up to its capacity: it allocates nothing until
// the first event, then doubles from 16 events, never past the bound.
// When full, the oldest events are overwritten and counted as dropped;
// recording never blocks on a reader.
type Timeline struct {
	mu    sync.Mutex
	epoch time.Time
	bound int     // capacity: the most events the ring ever holds
	ring  []Event // len(ring) == bound once full
	next  int     // ring write cursor once full
	total uint64  // events ever recorded
}

// minRing is the ring's first allocation, in events.
const minRing = 16

// NewTimeline returns a timeline holding at most capacity events
// (minimum 16). It allocates no event until the first Add. The epoch is
// the moment of creation.
func NewTimeline(capacity int) *Timeline {
	return &Timeline{epoch: time.Now(), bound: max(capacity, minRing)}
}

// Now returns nanoseconds since the timeline epoch, for callers that
// stamp a span start before its end is known.
func (t *Timeline) Now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Add records ev. If ev.Start is zero and ev.Dur negative (an instant
// with no explicit stamp), the caller should have set Start via Now();
// Add records it as-is.
func (t *Timeline) Add(ev Event) {
	t.mu.Lock()
	if len(t.ring) < t.bound {
		if len(t.ring) == cap(t.ring) {
			t.ring = append(make([]Event, 0, min(max(2*cap(t.ring), minRing), t.bound)), t.ring...)
		}
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next = (t.next + 1) % t.bound
	}
	t.total++
	t.mu.Unlock()
}

// Instant records an instant event stamped now.
func (t *Timeline) Instant(name, cat string, track int64, arg string) {
	t.Add(Event{Name: name, Cat: cat, Track: track, Start: t.Now(), Dur: -1, Arg: arg})
}

// Span records a span from start (a Now() stamp taken earlier) to now.
func (t *Timeline) Span(name, cat string, track int64, start int64, arg string) {
	end := t.Now()
	d := end - start
	if d < 0 {
		d = 0
	}
	t.Add(Event{Name: name, Cat: cat, Track: track, Start: start, Dur: d, Arg: arg})
}

// Events returns a snapshot of the buffered events in recording order
// (oldest first) plus the count of events dropped by ring overwrite.
func (t *Timeline) Events() (evs []Event, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs = make([]Event, 0, len(t.ring))
	if len(t.ring) == t.bound {
		evs = append(evs, t.ring[t.next:]...)
		evs = append(evs, t.ring[:t.next]...)
	} else {
		evs = append(evs, t.ring...)
	}
	if t.total > uint64(len(evs)) {
		dropped = t.total - uint64(len(evs))
	}
	return evs, dropped
}

// traceEvent is the Chrome trace-event JSON shape Perfetto and
// chrome://tracing load: ph "X" complete spans and ph "i" instants,
// timestamps in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}) loadable in Perfetto. Event Start/Dur
// nanoseconds become microsecond ts/dur; instants get thread scope.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := traceFile{TraceEvents: make([]traceEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, ev := range events {
		te := traceEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ts:   float64(ev.Start) / 1e3,
			Pid:  1,
			Tid:  ev.Track,
		}
		if ev.Dur < 0 {
			te.Ph = "i"
			te.S = "t"
		} else {
			te.Ph = "X"
			te.Dur = float64(ev.Dur) / 1e3
		}
		if ev.Arg != "" {
			te.Args = map[string]any{"detail": ev.Arg}
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteTrace snapshots the timeline and writes it as Chrome trace JSON.
func (t *Timeline) WriteTrace(w io.Writer) error {
	evs, _ := t.Events()
	return WriteChromeTrace(w, evs)
}
