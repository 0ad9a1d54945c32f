// Package obs is the engine's stdlib-only observability core: a central
// metric registry (counters, gauges, fixed-bucket histograms) rendered in
// Prometheus text format, and lightweight hierarchical spans carried through
// context.Context for EXPLAIN ANALYZE style reports.
//
// Design constraints, in order:
//
//  1. Cheap enough to leave on. Counter increments are single atomic adds on
//     pre-created instruments; span creation allocates nothing unless a trace
//     was explicitly started on the request's context.
//  2. Deterministic output. Render emits families sorted by name and series
//     sorted by label signature, so /metrics is stable for tests and scrapers.
//  3. No dependencies. Everything here is standard library.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric label.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// ---- instruments -------------------------------------------------------

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float (e.g. cumulative
// seconds), safe for concurrent use.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds f (which must be non-negative to keep the counter monotonic).
func (c *FloatCounter) Add(f float64) {
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + f)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current sum.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an integer value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations. Buckets are
// upper bounds (inclusive, Prometheus `le` semantics); an implicit +Inf
// bucket catches the rest.
type Histogram struct {
	buckets []float64       // sorted upper bounds
	counts  []atomic.Uint64 // len(buckets)+1; last is the +Inf overflow
	sum     FloatCounter
	count   atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.buckets, v) // first bucket with le >= v
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// ---- registry ----------------------------------------------------------

type kind int

const (
	kindCounter kind = iota
	kindFloatCounter
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindFloatCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance within a family. Exactly one of the
// instrument fields is set, matching the family's kind.
type series struct {
	labels string // canonical rendered label set, "" or `{a="b",c="d"}`

	counter *Counter
	fcount  *FloatCounter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc
}

// family groups all series sharing a metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histograms only
	series  map[string]*series
}

// Registry is a set of metric families, safe for concurrent registration,
// update, and rendering.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry the engine packages (rtree,
// histogram, sample, sdb) record into. The HTTP server merges it into
// /metrics alongside its own request-level registry.
var Default = NewRegistry()

// labelKey renders labels in canonical (name-sorted) form; instruments with
// the same name and label set are the same series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the family's series for the label set, creating family and
// series as needed. A name reused with a different kind panics: that is a
// programming error, not a runtime condition.
func (r *Registry) get(name, help string, k kind, buckets []float64, labels []Label) *series {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k.promType(), f.kind.promType()))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch k {
		case kindCounter:
			s.counter = &Counter{}
		case kindFloatCounter:
			s.fcount = &FloatCounter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			h := &Histogram{buckets: append([]float64(nil), f.buckets...)}
			h.counts = make([]atomic.Uint64, len(h.buckets)+1)
			s.hist = h
		}
		f.series[key] = s
	}
	return s
}

// Counter returns (creating if absent) the named counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, kindCounter, nil, labels).counter
}

// FloatCounter returns (creating if absent) the named float counter series,
// rendered with TYPE counter.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	return r.get(name, help, kindFloatCounter, nil, labels).fcount
}

// Gauge returns (creating if absent) the named gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.get(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns (creating if absent) the named histogram series. The
// bucket bounds of the first registration win; they must be sorted
// ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.get(name, help, kindHistogram, buckets, labels).hist
}

// CounterFunc registers a counter whose value is sampled from f at render
// time (for externally-maintained monotonic counts, e.g. cache hit totals).
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.get(name, help, kindCounterFunc, nil, labels).fn = f
}

// GaugeFunc registers a gauge sampled from f at render time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.get(name, help, kindGaugeFunc, nil, labels).fn = f
}

// ---- rendering ---------------------------------------------------------

// Render writes this registry in Prometheus text exposition format, families
// sorted by name and series by label signature.
func (r *Registry) Render() string { return RenderMerged(r) }

// Snapshot returns every series' current value keyed by name+labels.
// Histograms contribute <name>_sum and <name>_count entries. Used by
// benchmark harnesses to persist counter state machine-readably, and by the
// telemetry scraper every tick.
//
// Like RenderMerged, the series set is collected under the registry lock but
// sampled instruments (CounterFunc/GaugeFunc) run their closures after it is
// released: a closure is allowed to take its owner's mutex, and that owner
// may concurrently be registering new series (which takes the registry
// lock) — holding both here would be an AB-BA deadlock.
func (r *Registry) Snapshot() map[string]float64 {
	type entry struct {
		key  string
		kind kind
		s    *series
	}
	var entries []entry
	r.mu.Lock()
	for _, f := range r.families {
		for _, s := range f.series {
			//lint:ignore maporder entries only populate the result map below, so slice order is irrelevant
			entries = append(entries, entry{key: f.name + s.labels, kind: f.kind, s: s})
		}
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			out[e.key] = float64(e.s.counter.Value())
		case kindFloatCounter:
			out[e.key] = e.s.fcount.Value()
		case kindGauge:
			out[e.key] = float64(e.s.gauge.Value())
		case kindHistogram:
			// e.key is name+labels; sum/count suffixes attach to the name.
			name, labels := e.key, ""
			if i := strings.IndexByte(e.key, '{'); i >= 0 {
				name, labels = e.key[:i], e.key[i:]
			}
			out[name+"_sum"+labels] = e.s.hist.Sum()
			out[name+"_count"+labels] = float64(e.s.hist.Count())
		case kindCounterFunc, kindGaugeFunc:
			out[e.key] = e.s.fn()
		}
	}
	return out
}

// SnapshotMerged merges several registries' Snapshots into one map. Like
// RenderMerged, same-name collisions keep the first registry's series — the
// conventional layering (request registry first, obs.Default last) makes the
// more specific registry win. The telemetry scraper samples through this.
func SnapshotMerged(regs ...*Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range regs {
		for name, v := range r.Snapshot() {
			if _, dup := out[name]; !dup {
				out[name] = v
			}
		}
	}
	return out
}

// RenderMerged renders several registries as one exposition, with all
// families globally sorted by name. Families must not be split across
// registries (same-name collisions render the first registry's family only).
//
// Each family's series map is copied into a sorted slice under the registry
// lock — iterating the live map lock-free would race with get() inserting a
// new series — then rendered without the lock, so sampled instruments
// (CounterFunc/GaugeFunc) never run user closures while the registry is held.
func RenderMerged(regs ...*Registry) string {
	type renderable struct {
		f  *family
		ss []*series
	}
	byName := make(map[string]renderable)
	var names []string
	for _, r := range regs {
		r.mu.Lock()
		for name, f := range r.families {
			if _, dup := byName[name]; !dup {
				ss := make([]*series, 0, len(f.series))
				for _, s := range f.series {
					ss = append(ss, s)
				}
				sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
				byName[name] = renderable{f: f, ss: ss}
				names = append(names, name)
			}
		}
		r.mu.Unlock()
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		e := byName[name]
		renderFamily(&b, e.f, e.ss)
	}
	return b.String()
}

// renderFamily writes one family's HELP/TYPE header and the given series, in
// the (label-sorted) order the snapshot in RenderMerged produced. The family's
// identity fields are immutable after creation and instrument reads are
// atomic, so no lock is needed here.
func renderFamily(b *strings.Builder, f *family, ss []*series) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind.promType())
	for _, s := range ss {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		case kindFloatCounter:
			fmt.Fprintf(b, "%s%s %g\n", f.name, s.labels, s.fcount.Value())
		case kindGauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(b, "%s%s %g\n", f.name, s.labels, s.fn())
		case kindHistogram:
			renderHistogram(b, f, s)
		}
	}
}

// renderHistogram writes one histogram series: cumulative buckets, then sum
// and count. The bucket label set merges `le` into the series labels.
func renderHistogram(b *strings.Builder, f *family, s *series) {
	h := s.hist
	cum := uint64(0)
	for i, le := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(s.labels, fmt.Sprintf("%g", le)), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", f.name, s.labels, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.labels, h.Count())
}

// withLE appends the le label to a canonical label string.
func withLE(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", labels[:len(labels)-1], le)
}
