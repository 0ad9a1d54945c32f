package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialsel/internal/obs"
)

// TestQueryAnalyze drives /v1/query?analyze=1 on a two-table join and checks
// the EXPLAIN ANALYZE payload: a span tree with plan and execute phases, one
// operator span carrying rows / est_rows / rel_error, and the nested
// rtree.join span with its traversal counters.
func TestQueryAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "roads", "polyline", 1500, 7, false)
	createTable(t, ts.URL, "streams", "polyline", 500, 8, false)

	var qr QueryResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/query?analyze=1", QueryRequest{
		Tables:     []string{"roads", "streams"},
		Predicates: [][2]string{{"roads", "streams"}},
	}, &qr)
	if code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if qr.Analyze == nil || qr.Analyze.Name != "query" {
		t.Fatalf("analyze payload missing or misnamed: %+v", qr.Analyze)
	}
	if qr.TraceID == "" {
		t.Fatal("analyze response should carry the trace ID")
	}

	byName := map[string]*obs.SpanReport{}
	for _, c := range qr.Analyze.Children {
		byName[c.Name] = c
	}
	if byName["plan"] == nil || byName["execute"] == nil {
		t.Fatalf("want plan and execute children, got %+v", qr.Analyze.Children)
	}
	if byName["plan"].Attrs["est_rows"].(float64) != qr.EstRows {
		t.Fatalf("plan span est_rows %v != response est_rows %v",
			byName["plan"].Attrs["est_rows"], qr.EstRows)
	}

	exec := byName["execute"]
	if len(exec.Children) != 1 {
		t.Fatalf("two-table join should have one operator span, got %+v", exec.Children)
	}
	join := exec.Children[0]
	if !strings.HasPrefix(join.Name, "join ") {
		t.Fatalf("operator span = %q, want join", join.Name)
	}
	if join.Attrs["rows"].(float64) != float64(qr.TotalRows) {
		t.Fatalf("join span rows = %v, response total = %d", join.Attrs["rows"], qr.TotalRows)
	}
	if _, ok := join.Attrs["rel_error"]; !ok {
		t.Fatalf("join span missing rel_error: %+v", join.Attrs)
	}
	if len(join.Children) != 1 || !strings.HasPrefix(join.Children[0].Name, "rtree.packed_join") {
		t.Fatalf("join span should nest rtree.packed_join, got %+v", join.Children)
	}
	rt := join.Children[0]
	if rt.Attrs["node_visits"].(float64) <= 0 || rt.Attrs["output_pairs"].(float64) != float64(qr.TotalRows) {
		t.Fatalf("rtree.packed_join counters: %+v (total rows %d)", rt.Attrs, qr.TotalRows)
	}

	if !strings.Contains(qr.AnalyzeText, "rtree.packed_join") || !strings.Contains(qr.AnalyzeText, "execute") {
		t.Fatalf("analyze_text should render the tree:\n%s", qr.AnalyzeText)
	}

	// Without the flag the payload stays lean.
	var plain QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
		Tables:     []string{"roads", "streams"},
		Predicates: [][2]string{{"roads", "streams"}},
	}, &plain)
	if plain.Analyze != nil || plain.AnalyzeText != "" {
		t.Fatalf("analyze payload present without ?analyze=1: %+v", plain.Analyze)
	}
}

// TestQueryAnalyzeProbeStep: a three-table query's probe operator reports
// the rows it extended (probe_rows) and the index searches they cost
// (probe_searches) — one per distinct connecting item per worker, so never
// more than the rows — in the span tree and in analyze_text.
func TestQueryAnalyzeProbeStep(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "roads", "polyline", 1500, 7, false)
	createTable(t, ts.URL, "streams", "polyline", 500, 8, false)
	createTable(t, ts.URL, "parcels", "polyline", 800, 9, false)

	var qr QueryResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/query?analyze=1", QueryRequest{
		Tables:     []string{"roads", "streams", "parcels"},
		Predicates: [][2]string{{"roads", "streams"}, {"streams", "parcels"}},
	}, &qr)
	if code != 200 || qr.Analyze == nil {
		t.Fatalf("query: status %d, analyze %+v", code, qr.Analyze)
	}
	var probe *obs.SpanReport
	for _, c := range qr.Analyze.Children {
		if c.Name == "execute" && len(c.Children) == 2 {
			probe = c.Children[1]
		}
	}
	if probe == nil || !strings.HasPrefix(probe.Name, "probe ") {
		t.Fatalf("want execute > [join, probe], got %+v", qr.Analyze.Children)
	}
	rows, _ := probe.Attrs["probe_rows"].(float64)
	searches, _ := probe.Attrs["probe_searches"].(float64)
	if rows <= 0 || searches <= 0 || searches > rows {
		t.Fatalf("probe span: probe_rows %v, probe_searches %v; want 0 < searches <= rows", rows, searches)
	}
	if !strings.Contains(qr.AnalyzeText, "probe_searches=") {
		t.Fatalf("analyze_text should show probe_searches:\n%s", qr.AnalyzeText)
	}
}

// TestMetricsIncludeEngineSeries: /metrics must merge the engine-level
// obs.Default registry — R-tree traversal counters, histogram estimator
// counters, executor row counters — with the server's request series, and the
// exposition must be deterministic between scrapes.
func TestMetricsIncludeEngineSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "a", "uniform", 800, 1, false)
	createTable(t, ts.URL, "b", "uniform", 800, 2, false)

	var est EstimateResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{Left: "a", Right: "b"}, &est)
	var qr QueryResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
		Tables:     []string{"a", "b"},
		Predicates: [][2]string{{"a", "b"}},
	}, &qr)

	metrics := fetchMetrics(t, ts.URL)
	for _, name := range []string{
		"rtree_packed_node_visits_total",
		"rtree_packed_joins_total",
		"sdb_exec_rows_total",
		"sdb_exec_queries_total",
	} {
		if metricValue(t, metrics, name) <= 0 {
			t.Errorf("engine metric %s missing or zero", name)
		}
	}
	if !strings.Contains(metrics, `histogram_estimates_total{technique="gh"}`) {
		t.Errorf("GH estimator counter missing:\n%s", metrics)
	}

	// Determinism: two scrapes with no traffic in between may differ only in
	// sampled values, never in ordering — compare the line order of a
	// value-stripped rendering.
	stripped := func(s string) []string {
		var names []string
		for _, line := range strings.Split(s, "\n") {
			if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
				names = append(names, line[:i])
			}
		}
		return names
	}
	a, b := stripped(metrics), stripped(fetchMetrics(t, ts.URL))
	// The second scrape gains series (e.g. the GET /metrics route counter) but
	// every name from the first must appear in the same relative order.
	j := 0
	for _, name := range a {
		for j < len(b) && b[j] != name {
			j++
		}
		if j == len(b) {
			t.Fatalf("series %q absent or reordered in second scrape", name)
		}
	}
}

// TestMetricsExpositionNames holds every family /metrics renders to the
// exposition's naming contract — snake_case, a reserved namespace, counters
// end in _total — which dashboards and bench/'s per-layer attribution key on,
// and to the committed family list (testdata/metric_families.txt), whose
// every line names what reads that family: a family added without a line
// fails, and so does a listed family that stops rendering. This package links
// every engine package, so after each route has served one request with
// admission, telemetry and a WAL directory on, the render carries every family
// the daemon can expose; a route added without a request here fails too.
func TestMetricsExpositionNames(t *testing.T) {
	// The first name segments the exposition reserves: the mini-DBMS (sdb),
	// the daemon (sdbd), the index (rtree) and the paper's two estimator
	// families (GH/PH roll up under histogram_* with a technique label; gh and
	// ph cover code that labels at the family level).
	namespaces := map[string]bool{
		"sdb": true, "sdbd": true, "rtree": true,
		"gh": true, "ph": true, "histogram": true, "sample": true,
	}
	snakeCase := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

	cfg := telemetryTestConfig()
	cfg.Level = 5
	cfg.Admission = true
	cfg.WALDir = t.TempDir()
	s, ts := newTestServer(t, cfg)
	createTable(t, ts.URL, "a", "uniform", 400, 1, false)
	createTable(t, ts.URL, "b", "uniform", 400, 2, false)
	join := QueryRequest{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}}
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{"GET", "/healthz", nil},
		{"GET", "/v1/tables", nil},
		{"GET", "/v1/tables/a", nil},
		{"POST", "/v1/tables/a/insert", InsertRequest{Items: [][4]float64{{0.1, 0.1, 0.2, 0.2}}}},
		{"POST", "/v1/tables/a/delete", DeleteRequest{IDs: []int{0}}},
		{"POST", "/v1/tables/a/batch", BatchRequest{Insert: [][4]float64{{0.3, 0.3, 0.4, 0.4}}, Delete: []int{1}}},
		{"POST", "/v1/estimate", EstimateRequest{Left: "a", Right: "b", Method: "ss"}},
		{"POST", "/v1/explain", join},
		{"POST", "/v1/query", join},
		{"DELETE", "/v1/tables/b", nil},
		{"GET", "/metrics", nil},
	} {
		if code := doJSON(t, req.method, ts.URL+req.path, req.body, nil); code >= 300 {
			t.Fatalf("%s %s: status %d", req.method, req.path, code)
		}
	}
	s.Telemetry().Tick(time.Now())

	metrics := fetchMetrics(t, ts.URL)
	for _, route := range s.routes {
		if !strings.Contains(metrics, `route="`+route+`"`) {
			t.Errorf("route %s served no request: its series are missing from the render under test", route)
		}
	}
	listed := readFamilyList(t)
	families := 0
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, kind, _ := strings.Cut(rest, " ")
		switch want, ok := listed[name]; {
		case !ok:
			t.Errorf("family %s (%s) renders but testdata/metric_families.txt has no line naming what reads it", name, kind)
		case want != kind:
			t.Errorf("family %s renders as a %s, listed as a %s", name, kind, want)
		}
		delete(listed, name)
		switch ns, _, _ := strings.Cut(name, "_"); {
		case !snakeCase.MatchString(name):
			t.Errorf("metric %q is not snake_case ([a-z0-9_], starting with a letter)", name)
		case !namespaces[ns]:
			t.Errorf("metric %q is outside the reserved namespaces (sdb, sdbd, rtree, gh, ph, histogram, sample)", name)
		case kind == "counter" && !strings.HasSuffix(name, "_total"):
			t.Errorf("counter %q must end in _total", name)
		}
	}
	if families == 0 {
		t.Fatalf("no # TYPE lines in the render:\n%s", metrics)
	}
	for name := range listed {
		t.Errorf("listed family %s no longer renders: take its line out of testdata/metric_families.txt", name)
	}
}

// readFamilyList parses testdata/metric_families.txt into family → kind. Each
// line is "name kind reader…"; a line without a reader is an error.
func readFamilyList(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "metric_families.txt"))
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]string{}
	for i, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("metric_families.txt:%d: %q names no reader", i+1, line)
		}
		if _, dup := families[fields[0]]; dup {
			t.Fatalf("metric_families.txt:%d: %s listed twice", i+1, fields[0])
		}
		families[fields[0]] = fields[1]
	}
	return families
}

// TestEstimateErrorPerPair: every executed query adds its estimate's error
// once, to the series of the plan's base⋈first pair, ordered by name. On a
// server with telemetry, admission and a WAL directory, /metrics renders one
// series per pair and none of the removed drift-watchdog or engine families.
func TestEstimateErrorPerPair(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Level = 5
	cfg.Admission = true
	cfg.WALDir = t.TempDir()
	s, ts := newTestServer(t, cfg)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		createTable(t, ts.URL, name, "polyline", 600, int64(i+1), false)
	}
	counts := func() map[string]float64 {
		out := map[string]float64{}
		for _, line := range strings.Split(fetchMetrics(t, ts.URL), "\n") {
			if rest, ok := strings.CutPrefix(line, "sdbd_estimate_rel_error_count"); ok {
				labels, v, _ := strings.Cut(rest, " ")
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				out[labels] = n
			}
		}
		return out
	}
	executed := 0
	query := func(q QueryRequest) {
		t.Helper()
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q, nil); code != http.StatusOK {
			t.Fatalf("query %v: status %d", q.Tables, code)
		}
		executed++
	}
	const ab = `{left="a",right="b"}`

	// a⋈b and b⋈a are one series.
	query(QueryRequest{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}})
	query(QueryRequest{Tables: []string{"b", "a"}, Predicates: [][2]string{{"b", "a"}}})
	if got := counts(); got[ab] != 2 || len(got) != 1 {
		t.Errorf("after a⋈b and b⋈a: counts %v, want only %s at 2", got, ab)
	}

	// A 3-table chain adds to its (base, first) pair, whichever order the
	// planner picks.
	chain := QueryRequest{Tables: []string{"c", "d", "e"}, Predicates: [][2]string{{"c", "d"}, {"d", "e"}}}
	plan, err := s.store.Snapshot().Catalog.Plan((&QuerySpec{Tables: chain.Tables, Predicates: chain.Predicates}).toQuery())
	if err != nil {
		t.Fatal(err)
	}
	left, right := plan.Base, plan.Steps[0].Table
	if right < left {
		left, right = right, left
	}
	query(chain)
	pair := fmt.Sprintf(`{left=%q,right=%q}`, left, right)
	if got := counts(); got[pair] != 1 || got[ab] != 2 || len(got) != 2 {
		t.Errorf("after the chain planned %s⋈%s first: counts %v, want %s at 1 beside %s", plan.Base, plan.Steps[0].Table, got, pair, ab)
	}

	// A windowed join that returns nothing is scored all the same, once.
	query(QueryRequest{
		Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}},
		Windows: map[string][4]float64{"a": {0, 0, 0.2, 0.2}, "b": {0.8, 0.8, 1, 1}},
	})
	got := counts()
	if got[ab] != 3 {
		t.Errorf("an empty windowed join took %s from 2 to %g, want 3", ab, got[ab])
	}
	total := 0.0
	for _, n := range got {
		total += n
	}
	if total != float64(executed) {
		t.Errorf("error counts sum to %g over %v, want one per executed query (%d)", total, got, executed)
	}

	s.Telemetry().Tick(time.Now())
	metrics := fetchMetrics(t, ts.URL)
	for _, gone := range []string{
		"sdbd_estimate_rel_error_p50", "sdbd_estimate_rel_error_p90", "sdbd_estimate_drift_pairs",
		"histogram_build_items_total", "histogram_estimate_cells_total",
		"sample_builds_total", "sample_estimates_total", "sample_join_hits_total",
		"sdb_exec_probe_rows_total", "rtree_packed_builds_total", "rtree_packed_build_seconds_total",
	} {
		if strings.Contains(metrics, "# TYPE "+gone+" ") {
			t.Errorf("removed family %s still renders", gone)
		}
	}
}

// TestBenchMetricFamiliesRender pins the /metrics families the benchmark
// (bench/) reads by name (bench/trace.go:253–254 the estimate memo's hits and
// misses, 267–268 the admission verdicts, 272 executor rows, 295–298 the join
// kernels' counters, 311 folds). bench/ reads a family that is missing as 0
// without complaint, so a rename would silently zero its per-layer numbers:
// after traffic that touches each layer, on a server with admission on and a
// WAL directory as the benchmark runs it, every family must render.
func TestBenchMetricFamiliesRender(t *testing.T) {
	s, ts := newTestServer(t, Config{Level: 5, Admission: true, WALDir: t.TempDir()})
	createTable(t, ts.URL, "a", "uniform", 600, 1, false)
	createTable(t, ts.URL, "b", "uniform", 600, 2, false)
	join := QueryRequest{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}}
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/estimate", EstimateRequest{Left: "a", Right: "b"}},
		{"/v1/estimate", EstimateRequest{Left: "b", Right: "a"}},
		{"/v1/query", join},
		{"/v1/tables/a/batch", BatchRequest{Insert: [][4]float64{{0.3, 0.3, 0.4, 0.4}}, Delete: []int{1}}},
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+req.path, req.body, nil); code != http.StatusOK {
			t.Fatalf("POST %s: status %d", req.path, code)
		}
	}
	tab, err := s.ingest.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Repack(); err != nil {
		t.Fatal(err)
	}

	metrics := fetchMetrics(t, ts.URL)
	for _, family := range []string{
		"sdbd_estimate_cache_hits_total",
		"sdbd_estimate_cache_misses_total",
		"sdbd_admission_shed_total",
		"sdbd_admission_degraded_total",
		"sdb_exec_rows_total",
		"rtree_packed_node_visits_total",
		"rtree_packed_output_pairs_total",
		"rtree_packed_leaf_compares_total",
		"rtree_join_node_visits_total",
		"rtree_join_output_pairs_total",
		"rtree_join_leaf_compares_total",
		"sdbd_ingest_repacks_total",
	} {
		if !strings.Contains(metrics, "# TYPE "+family+" counter\n") {
			t.Errorf("family %s does not render as a counter", family)
		}
	}
	if hits, misses := metricValue(t, metrics, "sdbd_estimate_cache_hits_total"), metricValue(t, metrics, "sdbd_estimate_cache_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("estimate memo: hits %g misses %g, want 1 and 1 (b⋈a is a⋈b's entry)", hits, misses)
	}
}

// TestDebugEndpointsGated: pprof must 404 by default and serve when enabled,
// and /debug/vars is served under no config: /metrics is the one exposition.
func TestDebugEndpointsGated(t *testing.T) {
	status := func(base, path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	_, off := newTestServer(t, Config{Level: 4})
	if code := status(off.URL, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ should 404 when disabled, got %d", code)
	}
	_, on := newTestServer(t, Config{Level: 4, EnablePprof: true})
	if code := status(on.URL, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ should serve when enabled, got %d", code)
	}
	tcfg := telemetryTestConfig()
	tcfg.EnablePprof, tcfg.Admission, tcfg.WALDir = true, true, t.TempDir()
	_, all := newTestServer(t, tcfg)
	for _, base := range []string{off.URL, on.URL, all.URL} {
		if code := status(base, "/debug/vars"); code != http.StatusNotFound {
			t.Errorf("%s/debug/vars answered %d, want 404", base, code)
		}
	}
}

// TestTraceIDHeader: every instrumented response carries X-Trace-Id, and a
// client-supplied ID is echoed back for cross-service correlation.
func TestTraceIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("generated trace ID %q, want 16 hex chars", id)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "deadbeefcafef00d")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "deadbeefcafef00d" {
		t.Fatalf("client trace ID not echoed: got %q", got)
	}
}

// TestRenderDeterministic is the focused unit check for the sorted-output
// satellite: interleaved registrations must render identically regardless of
// insertion order.
func TestRenderDeterministic(t *testing.T) {
	m1, m2 := NewMetrics(), NewMetrics()
	// Register the same series in opposite orders.
	m1.RecordRequest("POST /v1/query", 200, 0)
	m1.RecordRequest("GET /metrics", 200, 0)
	m2.RecordRequest("GET /metrics", 200, 0)
	m2.RecordRequest("POST /v1/query", 200, 0)

	strip := func(s string) string {
		var b bytes.Buffer
		for _, line := range strings.Split(s, "\n") {
			if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
				b.WriteString(line[:i])
				b.WriteByte('\n')
			} else {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	// Both renders merge the shared obs.Default, which other tests mutate
	// concurrently in -count>1 runs; compare only series names, not values.
	a, b := strip(m1.Render()), strip(m2.Render())
	if a != b {
		t.Fatalf("render order depends on insertion order:\n--- m1:\n%s\n--- m2:\n%s", a, b)
	}
	if got := strip(m1.Render()); got != a {
		t.Fatalf("repeated render differs:\n%s\nvs\n%s", got, a)
	}
}
