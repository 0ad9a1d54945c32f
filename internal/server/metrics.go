package server

import (
	"strconv"
	"time"

	"spatialsel/internal/ingest"
	"spatialsel/internal/obs"
	"spatialsel/internal/resilience"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram, spanning sub-millisecond estimates to multi-second joins.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// errorBuckets are the upper bounds of the estimate-vs-actual relative
// error histogram. The paper's headline is <5% error, so the low buckets
// are dense there.
var errorBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}

// Metrics is the server's request-level metric registry, backed by
// internal/obs. Engine-level series (R-tree joins, histogram builds,
// executor rows) live in obs.Default; Render merges both so /metrics shows
// the whole stack. All methods are safe for concurrent use, and Render
// output is deterministic: families and series are emitted in sorted order.
type Metrics struct {
	reg        *obs.Registry
	extra      []*obs.Registry // merged into Render after reg (e.g. telemetry)
	inflight   *obs.Gauge
	memoHits   *obs.Counter
	memoMisses *obs.Counter
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	m.inflight = m.reg.Gauge("sdbd_inflight_requests",
		"Requests currently being served.")
	m.memoHits = m.reg.Counter("sdbd_estimate_cache_hits_total",
		"Pairwise /v1/estimate requests answered from the table memo.")
	m.memoMisses = m.reg.Counter("sdbd_estimate_cache_misses_total",
		"Pairwise /v1/estimate requests that computed their estimate.")
	return m
}

// RecordRequest adds one completed request to the route's counters.
func (m *Metrics) RecordRequest(route string, code int, elapsed time.Duration) {
	m.reg.Counter("sdbd_requests_total",
		"Completed HTTP requests by route and status code.",
		obs.L("route", route), obs.L("code", strconv.Itoa(code))).Inc()
	m.reg.Histogram("sdbd_request_duration_seconds",
		"Request latency histogram by route.", latencyBuckets,
		obs.L("route", route)).Observe(elapsed.Seconds())
}

// IncInflight / DecInflight track the number of requests currently being
// served.
func (m *Metrics) IncInflight() { m.inflight.Inc() }

// DecInflight is the matching decrement.
func (m *Metrics) DecInflight() { m.inflight.Dec() }

// RecordEstimateError adds one observed |estimate − actual| / actual sample
// (the paper's Estimation Error, as a fraction rather than percent) from a
// really-executed join to its table pair's series. The pair is ordered by
// name, so a⋈b and b⋈a are one series.
func (m *Metrics) RecordEstimateError(left, right string, relErr float64) {
	if right < left {
		left, right = right, left
	}
	m.reg.Histogram("sdbd_estimate_rel_error",
		"Estimate-vs-actual |est-actual|/actual over executed joins, by the plan's first table pair (names in order).",
		errorBuckets, obs.L("left", left), obs.L("right", right)).Observe(relErr)
}

// RecordEstimatorBuild counts one request that computed a pair estimate its
// tables did not hold instead of looking it up, by technique ("gh" for the
// planner's).
func (m *Metrics) RecordEstimatorBuild(technique string) {
	m.reg.Counter("sdbd_estimator_builds_total",
		"Requests that computed a pair estimate (and any table summary, Hilbert order or live view it needed) rather than looking it up, by technique.",
		obs.L("technique", technique)).Inc()
}

// RecordEstimateLookup counts one pairwise estimate: answered from the table
// memo, or computed.
func (m *Metrics) RecordEstimateLookup(hit bool) {
	if hit {
		m.memoHits.Inc()
	} else {
		m.memoMisses.Inc()
	}
}

// registerSampled installs the render-time-sampled table count. Called once
// from New; the closure pins the store.
func (m *Metrics) registerSampled(store *Store) {
	m.reg.GaugeFunc("sdbd_tables", "Registered tables.",
		func() float64 { return float64(len(store.Snapshot().Catalog.Names())) })
}

// registerAdmission exposes the admission controller's decision counters and
// live limit. Counters are sampled from the controller at render time: the
// controller is the single source of truth, so the gate's hot path never
// touches the registry.
func (m *Metrics) registerAdmission(c *resilience.Controller) {
	m.reg.CounterFunc("sdbd_admission_admitted_total",
		"Queries admitted and executed to completion.",
		func() float64 { return float64(c.Admitted()) })
	m.reg.CounterFunc("sdbd_admission_shed_total",
		"Queries refused with 503 at the concurrency limit.",
		func() float64 { return float64(c.Shed()) })
	m.reg.CounterFunc("sdbd_admission_degraded_total",
		"Queries forced to serial execution; stays 0 (kept for bench/trace.go until ROADMAP 1 (a)).",
		func() float64 { return float64(c.Degraded()) })
	m.reg.GaugeFunc("sdbd_admission_limit",
		"Current adaptive concurrency limit (AIMD).",
		func() float64 { return c.Limit() })
	m.reg.GaugeFunc("sdbd_admission_inflight",
		"Query slots currently held by admitted queries.",
		func() float64 { return float64(c.Inflight()) })
}

// registerIngest exposes the WAL degraded set's size.
func (m *Metrics) registerIngest(mgr *ingest.Manager) {
	m.reg.GaugeFunc("sdbd_wal_degraded_tables",
		"Tables currently in read-only degraded mode after persistent WAL failure.",
		func() float64 { return float64(len(mgr.DegradedTables())) })
}

// merge adds a registry to the exposition, after the request registry and
// before obs.Default. Called during Server construction only (not
// concurrency-safe once requests are flowing).
func (m *Metrics) merge(reg *obs.Registry) { m.extra = append(m.extra, reg) }

// Render writes the full exposition: the server's request-level registry,
// any merged subsystem registries (telemetry), then the engine-level
// obs.Default registry, families sorted globally by name.
func (m *Metrics) Render() string {
	regs := make([]*obs.Registry, 0, 2+len(m.extra))
	regs = append(regs, m.reg)
	regs = append(regs, m.extra...)
	regs = append(regs, obs.Default)
	return obs.RenderMerged(regs...)
}
