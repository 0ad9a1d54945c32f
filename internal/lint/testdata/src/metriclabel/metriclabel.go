// Package metriclabel is lint-test corpus: seeded violations and clean cases
// for the metriclabel analyzer.
package metriclabel

import "spatialsel/internal/obs"

// RegisterBad seeds one violation of each naming rule.
func RegisterBad(r *obs.Registry) {
	r.Counter("sdbRequests_total", "camel-case segment") // want metriclabel: snake_case
	r.Counter("requests_total", "unknown namespace")     // want metriclabel: namespace
	r.Counter("sdb_requests", "counter missing _total")  // want metriclabel: _total
	r.Gauge("sdb__depth", "empty segment")               // want metriclabel: snake_case
}

// RegisterDynamic builds the metric name at run time, defeating static
// vetting of the registry. (violation)
func RegisterDynamic(r *obs.Registry, suffix string) {
	r.Gauge("sdb_"+suffix, "dynamic name") // want metriclabel: literal
}

// LookupInLoop re-resolves a counter on every iteration. (violation)
func LookupInLoop(r *obs.Registry, items []int) {
	for range items {
		r.Counter("sdb_items_total", "items processed").Inc() // want metriclabel: hoist
	}
}

// RegisterGood exercises every constructor with conforming names. (clean)
func RegisterGood(r *obs.Registry) {
	r.Counter("sdb_requests_total", "requests served")
	r.FloatCounter("rtree_overlap_area_total", "summed overlap area")
	r.Gauge("sdbd_sessions", "open sessions")
	r.Histogram("histogram_build_seconds", "estimator build time", nil)
	r.CounterFunc("sample_refreshes_total", "sample refreshes", func() float64 { return 0 })
	r.GaugeFunc("gh_cells", "grid histogram cells", func() float64 { return 0 })
}

// HoistedLoop resolves once, then updates in the loop. (clean)
func HoistedLoop(r *obs.Registry, items []int) {
	c := r.Counter("ph_points_total", "points partitioned")
	for range items {
		c.Inc()
	}
}

// SuppressedName documents a grandfathered metric name. (clean: suppressed)
func SuppressedName(r *obs.Registry) {
	//lint:ignore metriclabel corpus: grandfathered name kept for dashboard compatibility
	r.Gauge("legacy_depth", "pre-convention metric")
}

// RegisterTelemetry pins the telemetry subsystem's metric families as
// conforming: the scraper/flight-recorder accounting and the per-table-pair
// drift gauges, labeled exactly as the watchdog registers them. (clean)
func RegisterTelemetry(r *obs.Registry) {
	r.Counter("sdbd_telemetry_scrapes_total", "completed scrape ticks")
	r.GaugeFunc("sdbd_telemetry_series", "tracked time series", func() float64 { return 0 })
	r.CounterFunc("sdbd_telemetry_series_dropped_total", "series past the cap", func() float64 { return 0 })
	r.Counter("sdbd_telemetry_requests_observed_total", "requests seen by the flight recorder")
	r.Counter("sdbd_telemetry_requests_retained_total", "requests retained", obs.L("reason", "slow"))
	r.GaugeFunc("sdbd_estimate_rel_error_p50", "windowed p50 relative error",
		func() float64 { return 0 }, obs.L("left", "roads"), obs.L("right", "streams"))
	r.GaugeFunc("sdbd_estimate_rel_error_p90", "windowed p90 relative error",
		func() float64 { return 0 }, obs.L("left", "roads"), obs.L("right", "streams"))
	r.GaugeFunc("sdbd_estimate_drift_pairs", "flagged pairs", func() float64 { return 0 })
}

// RegisterPacked pins the packed-snapshot kernel's metric families as
// conforming: the rtree packed build/join accounting and the store's
// publish-time pack counter, labeled exactly as those layers register them.
// (clean)
func RegisterPacked(r *obs.Registry) {
	r.Counter("rtree_packed_builds_total", "packed snapshot images built")
	r.FloatCounter("rtree_packed_build_seconds_total", "seconds spent packing")
	r.Counter("rtree_packed_joins_total", "packed join kernel invocations")
	r.Counter("rtree_packed_node_visits_total", "node pairs visited by the packed kernel")
	r.Counter("rtree_packed_leaf_compares_total", "item lanes evaluated by the packed kernel")
	r.Counter("rtree_packed_output_pairs_total", "pairs emitted by the packed kernel")
	r.Counter("rtree_packed_cancel_polls_total", "cancellation polls in the packed kernel")
	r.Counter("sdbd_packed_publishes_total", "tables packed at publish time")
}

// RegisterResilience pins the resilience subsystem's metric families as
// conforming: the admission gate's decision counters and gauges, and the WAL
// fault-tolerance counters, labeled exactly as the server and ingest layers
// register them. (clean)
func RegisterResilience(r *obs.Registry) {
	r.CounterFunc("sdbd_admission_admitted_total", "queries admitted", func() float64 { return 0 })
	r.CounterFunc("sdbd_admission_shed_total", "queries shed with 503", func() float64 { return 0 })
	r.CounterFunc("sdbd_admission_degraded_total", "queries forced serial", func() float64 { return 0 })
	r.GaugeFunc("sdbd_admission_limit", "adaptive concurrency limit", func() float64 { return 0 })
	r.GaugeFunc("sdbd_admission_inflight", "admitted queries in flight", func() float64 { return 0 })
	r.Counter("sdbd_wal_retry_total", "retried WAL operations", obs.L("op", "sync"))
	r.Counter("sdbd_wal_degraded_total", "tables flipped read-only")
	r.Counter("sdbd_wal_recovered_total", "tables re-armed after probe")
	r.GaugeFunc("sdbd_wal_degraded_tables", "tables currently degraded", func() float64 { return 0 })
}
