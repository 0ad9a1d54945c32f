package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialsel/internal/obs"
)

// Point is one retained sample of one series. Rate is the per-second change
// since the previous sample, computed at query time; it is meaningful only
// for counter-kind series and is always ≥ 0 there (in-process counters never
// reset).
type Point struct {
	UnixMS int64   `json:"t_unix_ms"`
	Value  float64 `json:"value"`
	Rate   float64 `json:"rate"`
}

// Series is one named time series in a query result.
type Series struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // "counter" or "gauge"
	Points []Point `json:"points"`
}

// TimeseriesResult is the payload of GET /v1/debug/timeseries. Field order
// is fixed by this struct and Series are sorted by name, so two queries over
// the same retained samples produce byte-identical JSON.
type TimeseriesResult struct {
	NowUnixMS  int64    `json:"now_unix_ms"`
	Ticks      uint64   `json:"ticks"`
	Series     []Series `json:"series"`
	Dropped    uint64   `json:"dropped_series"`
	MaxSamples int      `json:"max_samples_per_series"`
}

// sample is the stored form of a point: timestamp and raw value (rates are
// derived on read, so the write path stays one append).
type sample struct {
	unixMS int64
	v      float64
}

// ring is one series' fixed-size sample buffer.
type ring struct {
	kind string
	buf  []sample
	head int // index of the oldest sample
	n    int
}

func (r *ring) push(s sample) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = s
		r.n++
		return
	}
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the i-th oldest retained sample.
func (r *ring) at(i int) sample { return r.buf[(r.head+i)%len(r.buf)] }

// Store is the in-process time-series database: each Tick samples the
// snapshot function once and appends every series' value to its ring.
// Memory is strictly bounded: maxSeries rings of ringSize samples.
type Store struct {
	snapshot  func() map[string]float64
	ringSize  int
	maxSeries int

	ticks   atomic.Uint64
	dropped atomic.Uint64

	mu     sync.Mutex
	series map[string]*ring
}

// NewStore builds a store sampling from snapshot. The registry receives the
// store's self-observability gauges; nil skips them (standalone tests).
func NewStore(snapshot func() map[string]float64, ringSize, maxSeries int, reg *obs.Registry) *Store {
	if ringSize <= 0 {
		ringSize = 360
	}
	if maxSeries <= 0 {
		maxSeries = 2048
	}
	s := &Store{
		snapshot:  snapshot,
		ringSize:  ringSize,
		maxSeries: maxSeries,
		series:    make(map[string]*ring),
	}
	if reg != nil {
		reg.GaugeFunc("sdbd_telemetry_series",
			"Distinct time series tracked by the telemetry store.",
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.series))
			})
		reg.CounterFunc("sdbd_telemetry_series_dropped_total",
			"Series not tracked because the store hit its series cap.",
			func() float64 { return float64(s.dropped.Load()) })
	}
	return s
}

// Ticks returns how many scrape passes have completed.
func (s *Store) Ticks() uint64 { return s.ticks.Load() }

// Tick runs one scrape pass stamped at now. Series are ingested in sorted
// name order so which series hit the cap first is deterministic.
func (s *Store) Tick(now time.Time) {
	snap := s.snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	ms := now.UnixMilli()

	s.mu.Lock()
	for _, name := range names {
		r, ok := s.series[name]
		if !ok {
			if len(s.series) >= s.maxSeries {
				s.dropped.Add(1)
				continue
			}
			r = &ring{kind: seriesKind(name), buf: make([]sample, s.ringSize)}
			s.series[name] = r
		}
		r.push(sample{unixMS: ms, v: snap[name]})
	}
	s.mu.Unlock()
	s.ticks.Add(1)
}

// seriesKind classifies a series by the exposition naming convention the
// server's TestMetricsExpositionNames enforces: counters end in _total, and
// histogram snapshots contribute monotone _sum/_count entries. Everything
// else is a gauge. The name may carry a canonical label suffix
// ("name{a=\"b\"}").
func seriesKind(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") {
		return "counter"
	}
	return "gauge"
}

// Names returns every tracked series name, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Query returns the retained points of every series matching one of the
// patterns (prefix match, so a family name selects all its label variants;
// an empty pattern list selects every series), restricted to samples newer
// than now−window (window ≤ 0 keeps everything).
// Series come back sorted by name; a counter point's Rate is computed
// against its predecessor even when the predecessor falls outside the
// window, so the first in-window point still has a meaningful rate.
func (s *Store) Query(patterns []string, window time.Duration, now time.Time) TimeseriesResult {
	res := TimeseriesResult{
		NowUnixMS:  now.UnixMilli(),
		Ticks:      s.ticks.Load(),
		Dropped:    s.dropped.Load(),
		MaxSamples: s.ringSize,
	}
	cutoff := int64(0)
	if window > 0 {
		cutoff = now.Add(-window).UnixMilli()
	}
	for _, name := range s.Names() {
		if !matchesAny(name, patterns) {
			continue
		}
		s.mu.Lock()
		r := s.series[name]
		out := Series{Name: name, Kind: r.kind}
		var prev sample
		for i := 0; i < r.n; i++ {
			cur := r.at(i)
			if cur.unixMS >= cutoff {
				p := Point{UnixMS: cur.unixMS, Value: cur.v}
				if r.kind == "counter" && i > 0 {
					if dt := float64(cur.unixMS-prev.unixMS) / 1000; dt > 0 {
						p.Rate = (cur.v - prev.v) / dt
					}
				}
				out.Points = append(out.Points, p)
			}
			prev = cur
		}
		s.mu.Unlock()
		res.Series = append(res.Series, out)
	}
	return res
}

func matchesAny(name string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
