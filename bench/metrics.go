package main

// metricDef is one reported metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; a test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the server sees, measured with tracing off.
// Every time-derived metric is stated at the reference box's quiet speed (see
// yardstick.go); the times as the clock read them are per-layer metrics,
// raw.*, beside yardstick.slowdown. The widest spread the self-checks saw
// across ten seeds was 10.5 % and the widest shift between two passes 6 %
// (README, Self-check).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_tail_ms", "ms", "lower", 0.25},
	{"gh_accuracy_min", "ratio", "higher", 0.005},
}

// perLayer is what the traced round attributes to single layers. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "server.request_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.gate_us", Unit: "us", Better: "lower"},
	{Name: "resilience.shed_total", Unit: "count", Better: "lower"},
	{Name: "resilience.degraded_total", Unit: "count", Better: "lower"},
	{Name: "sdb.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "sdb.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "sdb.exec_self_ms", Unit: "ms", Better: "lower"},
	{Name: "sdb.rows_per_op", Unit: "rows", Better: "lower"},
	{Name: "sdb.plan_est_rel_error_p50", Unit: "ratio", Better: "lower"},
	{Name: "histogram.gh_build_ms", Unit: "ms", Better: "lower"},
	{Name: "histogram.gh_estimate_us", Unit: "us", Better: "lower"},
	{Name: "histogram.gh_bytes", Unit: "B", Better: "lower"},
	{Name: "histogram.gh_incr_us_per_record", Unit: "us", Better: "lower"},
	{Name: "histogram.ph_estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "histogram.basicgh_estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "histogram.gh_est_to_join_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sample.rs_estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.ss_estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.bulkload_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.packed_join_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.packed_join_par_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.pointer_join_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.search_us", Unit: "us", Better: "lower"},
	{Name: "rtree.node_visits_per_op", Unit: "count", Better: "lower"},
	{Name: "rtree.leaf_compares_per_pair", Unit: "ratio", Better: "lower"},
	{Name: "ingest.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.apply_self_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "ingest.fsyncs_per_batch", Unit: "count", Better: "lower"},
	{Name: "ingest.wal_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "ingest.repack_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.repacks_total", Unit: "count", Better: "lower"},
	{Name: "ingest.recover_s", Unit: "s", Better: "lower"},
	{Name: "ingest.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "raw.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "raw.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "yardstick.slowdown", Unit: "ratio", Better: "lower"},
}
