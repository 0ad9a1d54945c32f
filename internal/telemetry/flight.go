package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialsel/internal/obs"
)

// Event is one request's "wide event" and its only record: the server's
// middleware creates one per request, the handler writes what only it knows
// (tables, rows, estimate, relative error, admission verdict) straight into
// the fields, and one consumer derives the route metrics, the per-pair
// estimate-error histogram, the flight ring entry and the request log line
// from the finished value — so no two of them can disagree. The handler runs
// on the middleware's goroutine; nothing here is locked.
//
// Tables of an executed query are in plan order, base table first: the first
// two name the pair whose error series RelError is added to.
//
// CacheHit is set by a pairwise estimate only: whether the table memo answered
// it (sdb.Table.Estimate). Estimator and EstBuildMicros are set when the
// request computed a pair estimate the tables did not hold — a pairwise
// estimate's miss, or the planner's — that later requests look up: the
// technique and the time the misses took. Both are zero when every estimate
// was already held.
type Event struct {
	Seq            uint64          `json:"seq"`
	UnixMS         int64           `json:"t_unix_ms"`
	TraceID        string          `json:"trace_id"`
	Route          string          `json:"route"`
	Method         string          `json:"method"`
	Path           string          `json:"path"`
	Status         int             `json:"status"`
	DurationMicros int64           `json:"duration_micros"`
	Reason         string          `json:"reason"` // why it was retained
	Panic          bool            `json:"panic,omitempty"`
	Workers        int             `json:"workers,omitempty"`
	Admission      string          `json:"admission,omitempty"` // admitted or shed
	Tables         []string        `json:"tables,omitempty"`
	Rows           int             `json:"rows,omitempty"`
	EstRows        *float64        `json:"est_rows,omitempty"`
	RelError       *float64        `json:"rel_error,omitempty"`
	CacheHit       *bool           `json:"cache_hit,omitempty"`
	Estimator      string          `json:"estimator,omitempty"`
	EstBuildMicros int64           `json:"est_build_micros,omitempty"`
	Spans          *obs.SpanReport `json:"spans,omitempty"`
}

// Retention reasons, in decision order.
const (
	ReasonPanic  = "panic"
	ReasonError  = "error"
	ReasonSlow   = "slow"
	ReasonSample = "sample"
)

// Admission verdicts recorded on query events.
const (
	AdmissionAdmitted = "admitted"
	AdmissionShed     = "shed"
)

// FlightRecorder is a bounded ring of retained request events with
// tail-sampling retention: the decision is made after the request finishes,
// when status, latency, and panic state are known. Panics and error statuses
// (≥ 400) are always kept, as is anything at or above the slow threshold;
// of the remaining fast, successful bulk, one in sampleN is kept so the ring
// always carries a baseline of normal traffic to compare outliers against.
type FlightRecorder struct {
	slow    time.Duration
	sampleN uint64

	retained map[string]*obs.Counter
	observed *obs.Counter

	// fast counts fast, successful requests (the sampling cursor). Atomic so
	// the retention decision — and span materialization for retained events —
	// happens before mu is taken: the unretained bulk never touches the lock.
	fast atomic.Uint64

	mu   sync.Mutex
	buf  []Event
	head int // index of the oldest retained event
	n    int
	seq  uint64
}

// NewFlightRecorder builds a recorder. slow ≤ 0 defaults to 250ms, size to
// 512 entries, sampleN to 16. The registry receives the recorder's retention
// accounting; nil skips it.
func NewFlightRecorder(slow time.Duration, size, sampleN int, reg *obs.Registry) *FlightRecorder {
	if slow <= 0 {
		slow = 250 * time.Millisecond
	}
	if size <= 0 {
		size = 512
	}
	if sampleN <= 0 {
		sampleN = 16
	}
	f := &FlightRecorder{
		slow:    slow,
		sampleN: uint64(sampleN),
		buf:     make([]Event, size),
	}
	if reg != nil {
		f.observed = reg.Counter("sdbd_telemetry_requests_observed_total",
			"Requests seen by the flight recorder, retained or not.")
		const retainedHelp = "Requests retained in the flight recorder, by retention reason."
		f.retained = map[string]*obs.Counter{
			ReasonPanic:  reg.Counter("sdbd_telemetry_requests_retained_total", retainedHelp, obs.L("reason", ReasonPanic)),
			ReasonError:  reg.Counter("sdbd_telemetry_requests_retained_total", retainedHelp, obs.L("reason", ReasonError)),
			ReasonSlow:   reg.Counter("sdbd_telemetry_requests_retained_total", retainedHelp, obs.L("reason", ReasonSlow)),
			ReasonSample: reg.Counter("sdbd_telemetry_requests_retained_total", retainedHelp, obs.L("reason", ReasonSample)),
		}
	}
	return f
}

// SlowThreshold returns the always-retain latency threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration { return f.slow }

// Record applies the tail-sampling policy to one finished request and
// retains it if it qualifies, reporting whether it was kept. The event's
// Seq and Reason are assigned here. spans, when non-nil, is invoked only for
// retained events — that is the point of tail sampling: the fast unretained
// bulk never pays for span-tree materialization.
func (f *FlightRecorder) Record(ev Event, spans func() *obs.SpanReport) bool {
	if f.observed != nil {
		f.observed.Inc()
	}
	switch {
	case ev.Panic:
		ev.Reason = ReasonPanic
	case ev.Status >= 400:
		ev.Reason = ReasonError
	case ev.DurationMicros >= f.slow.Microseconds():
		ev.Reason = ReasonSlow
	default:
		if (f.fast.Add(1)-1)%f.sampleN != 0 {
			return false
		}
		ev.Reason = ReasonSample
	}
	// Materialize the span tree before taking f.mu: the callback walks spans
	// under their own locks, and unknown code must not run inside the
	// recorder's critical section.
	if spans != nil {
		ev.Spans = spans()
	}
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	if f.n < len(f.buf) {
		f.buf[(f.head+f.n)%len(f.buf)] = ev
		f.n++
	} else {
		f.buf[f.head] = ev
		f.head = (f.head + 1) % len(f.buf)
	}
	f.mu.Unlock()
	if c := f.retained[ev.Reason]; c != nil {
		c.Inc()
	}
	return true
}

// FlightQuery filters a Snapshot of the recorder.
type FlightQuery struct {
	// Route keeps events whose route contains this substring ("" keeps all).
	Route string
	// MinMicros keeps events at least this slow.
	MinMicros int64
	// ErrorsOnly keeps only error and panic retentions.
	ErrorsOnly bool
	// Limit caps the result (0 = no cap).
	Limit int
}

// Query returns the retained events matching q, newest first (descending
// Seq) — a deterministic order for a given retained set.
func (f *FlightRecorder) Query(q FlightQuery) []Event {
	f.mu.Lock()
	out := make([]Event, 0, f.n)
	for i := f.n - 1; i >= 0; i-- {
		ev := f.buf[(f.head+i)%len(f.buf)]
		if q.Route != "" && !strings.Contains(ev.Route, q.Route) {
			continue
		}
		if ev.DurationMicros < q.MinMicros {
			continue
		}
		if q.ErrorsOnly && ev.Reason != ReasonError && ev.Reason != ReasonPanic {
			continue
		}
		out = append(out, ev)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}
