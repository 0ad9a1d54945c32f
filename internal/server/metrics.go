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
	reg      *obs.Registry
	extra    []*obs.Registry // merged into Render after reg (e.g. telemetry)
	inflight *obs.Gauge
	estErr   *obs.Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	m.inflight = m.reg.Gauge("sdbd_inflight_requests",
		"Requests currently being served.")
	m.estErr = m.reg.Histogram("sdbd_estimate_rel_error",
		"Estimate-vs-actual |est-actual|/actual over executed joins.", errorBuckets)
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
// really-executed join.
func (m *Metrics) RecordEstimateError(relErr float64) { m.estErr.Observe(relErr) }

// RecordEstimatorBuild counts one request that built a per-generation
// estimator input instead of looking it up, by the technique that wanted it
// ("gh" for the planner's pair selectivities).
func (m *Metrics) RecordEstimatorBuild(technique string) {
	m.reg.Counter("sdbd_estimator_builds_total",
		"Requests that built a per-generation estimator input (table summary, Hilbert order, live view, planner selectivity) rather than looking it up, by technique.",
		obs.L("technique", technique)).Inc()
}

// registerSampled installs render-time-sampled series for the cache and
// table store. Called once from New; the closures pin the live objects.
func (m *Metrics) registerSampled(cache *EstimateCache, store *Store) {
	m.reg.CounterFunc("sdbd_estimate_cache_hits_total", "Estimator cache hits.",
		func() float64 { h, _ := cache.Counters(); return float64(h) })
	m.reg.CounterFunc("sdbd_estimate_cache_misses_total", "Estimator cache misses.",
		func() float64 { _, mi := cache.Counters(); return float64(mi) })
	m.reg.GaugeFunc("sdbd_estimate_cache_entries", "Estimator cache current size.",
		func() float64 { return float64(cache.Len()) })
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
		"Queries refused with 503 by the concurrency limit or the cost gate.",
		func() float64 { return float64(c.Shed()) })
	m.reg.CounterFunc("sdbd_admission_degraded_total",
		"Queries the cost gate forced to serial execution under pressure.",
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
