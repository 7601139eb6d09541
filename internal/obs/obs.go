package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; Add and Inc are single atomic adds (no allocation,
// no lock), safe for the engine hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over non-negative integer
// observations (nanoseconds, bytes, counts). Buckets are cumulative in
// exposition (Prometheus `le` semantics) but stored per-bucket; Observe
// is a bounded scan over the bucket bounds plus three atomic adds —
// no locks, no allocation.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// ExpBuckets returns n ascending bucket bounds starting at start and
// doubling each step — the standard latency/size bucket shape used by
// every histogram in this repo.
func ExpBuckets(start uint64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	b := make([]uint64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// metric is one sample within a family: a concrete label set bound to
// one collector.
type metric struct {
	labels string // rendered label block without braces, e.g. `phase="viewWalk"`, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all samples sharing one metric name: one HELP/TYPE pair
// in exposition.
type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	metrics []*metric
	byLabel map[string]*metric
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration takes the registry lock; the returned
// collectors are lock-free thereafter. Registering the same
// name+labels twice returns the existing collector (and panics if the
// type differs), so package-level lazy registration is idempotent.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry sim, dist and rvd
// publish into; rvd's GET /metrics exposes it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// splitName separates `family{label="x"}` into (family, label block).
func splitName(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	if !strings.HasSuffix(name, "}") {
		panic(fmt.Sprintf("obs: malformed metric name %q", name))
	}
	return name[:i], name[i+1 : len(name)-1]
}

func (r *Registry) metricFor(name, help, typ string) *metric {
	fam, labels := splitName(name)
	if fam == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[fam]
	if f == nil {
		f = &family{name: fam, help: help, typ: typ, byLabel: make(map[string]*metric)}
		r.byName[fam] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", fam, f.typ, typ))
	}
	m := f.byLabel[labels]
	if m == nil {
		m = &metric{labels: labels}
		f.byLabel[labels] = m
		f.metrics = append(f.metrics, m)
	}
	return m
}

// Counter registers (or returns the existing) counter under name. The
// name may carry an inline label block: `sim_wakeups_total{phase="x"}`
// registers a sample of family sim_wakeups_total.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.metricFor(name, help, "counter")
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.metricFor(name, help, "gauge")
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or returns the existing) histogram under name
// with the given ascending bucket bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	m := r.metricFor(name, help, "histogram")
	if m.h == nil {
		b := make([]uint64, len(bounds))
		copy(b, bounds)
		m.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return m.h
}

// Expose writes every registered family in Prometheus text exposition
// format (families in registration order, samples in registration
// order within a family). It is safe to call concurrently with
// collector updates; values are a point-in-time atomic snapshot per
// sample, not a cross-metric consistent cut.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, m := range f.metrics {
			switch {
			case m.c != nil:
				writeSample(&b, f.name, m.labels, "", m.c.Value())
			case m.g != nil:
				v := m.g.Value()
				if v < 0 {
					fmt.Fprintf(&b, "%s %d\n", sampleName(f.name, m.labels, ""), v)
				} else {
					writeSample(&b, f.name, m.labels, "", uint64(v))
				}
			case m.h != nil:
				h := m.h
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					writeSample(&b, f.name+"_bucket", m.labels, fmt.Sprintf(`le="%d"`, bound), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				writeSample(&b, f.name+"_bucket", m.labels, `le="+Inf"`, cum)
				writeSample(&b, f.name+"_sum", m.labels, "", h.Sum())
				writeSample(&b, f.name+"_count", m.labels, "", h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sampleName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

func writeSample(b *strings.Builder, name, labels, extra string, v uint64) {
	fmt.Fprintf(b, "%s %d\n", sampleName(name, labels, extra), v)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Expose(w)
	})
}

// Values returns a flat snapshot of every sample keyed by its rendered
// sample name (`family{labels}`); histograms contribute their _sum and
// _count. Intended for tests asserting counter movement.
func (r *Registry) Values() map[string]uint64 {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	out := make(map[string]uint64)
	for _, f := range fams {
		for _, m := range f.metrics {
			switch {
			case m.c != nil:
				out[sampleName(f.name, m.labels, "")] = m.c.Value()
			case m.g != nil:
				out[sampleName(f.name, m.labels, "")] = uint64(m.g.Value())
			case m.h != nil:
				out[sampleName(f.name+"_sum", m.labels, "")] = m.h.Sum()
				out[sampleName(f.name+"_count", m.labels, "")] = m.h.Count()
			}
		}
	}
	return out
}
