package server

import (
	"bytes"
	"net/http"
	"regexp"
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
// end in _total — which dashboards and bench/'s per-layer attribution key on.
// This package links every engine package, so after each route has served one
// request with admission and telemetry on, the render carries every family
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
	families := 0
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, kind, _ := strings.Cut(rest, " ")
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
}

// TestDebugEndpointsGated: pprof and expvar must 404 by default and serve
// when enabled.
func TestDebugEndpointsGated(t *testing.T) {
	_, off := newTestServer(t, Config{Level: 4})
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(off.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s should 404 when disabled, got %d", path, resp.StatusCode)
		}
	}

	_, on := newTestServer(t, Config{Level: 4, EnablePprof: true, EnableExpvar: true})
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s should serve when enabled, got %d", path, resp.StatusCode)
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
