package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer spins up an httptest server around a fresh Server. Level 7
// matches the paper's recommended statistics level — the e2e accuracy band
// below leans on it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON posts body (marshalled) and decodes the response into out,
// returning the status code.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		buf = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func createTable(t *testing.T, base, name, kind string, n int, seed int64, replace bool) TableInfo {
	t.Helper()
	var info TableInfo
	code := doJSON(t, http.MethodPost, base+"/v1/tables", CreateTableRequest{
		Name:    name,
		Replace: replace,
		Generator: &GeneratorSpec{
			Kind: kind, N: n, Seed: seed,
		},
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create %s: status %d", name, code)
	}
	return info
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts the value of an exact metric line ("name value").
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parse metric %s from %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

// TestEndToEnd mirrors the paper's workflow over HTTP: register two polyline
// tables (the TIGER-like workload), estimate, explain, execute — then check
// the level-7 GH estimate lands within a loose band of the executed result
// and the cache hit shows up on /metrics.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	createTable(t, ts.URL, "roads", "polyline", 3000, 7, false)
	createTable(t, ts.URL, "streams", "polyline", 800, 8, false)

	// Listing and per-table stats.
	var list struct {
		Tables []TableInfo `json:"tables"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables", nil, &list); code != 200 {
		t.Fatalf("list tables: status %d", code)
	}
	if len(list.Tables) != 2 {
		t.Fatalf("want 2 tables, got %+v", list.Tables)
	}
	var info TableInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/roads", nil, &info); code != 200 {
		t.Fatalf("get table: status %d", code)
	}
	if info.Items != 3000 || info.StatsLevel != 7 || info.TreeHeight < 1 {
		t.Fatalf("table info: %+v", info)
	}

	// Estimate: first call misses the cache, second hits.
	var est, est2 EstimateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
		EstimateRequest{Left: "roads", Right: "streams"}, &est); code != 200 {
		t.Fatalf("estimate: status %d", code)
	}
	if est.Cached || est.PairCount <= 0 {
		t.Fatalf("first estimate: %+v", est)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
		EstimateRequest{Left: "roads", Right: "streams"}, &est2); code != 200 {
		t.Fatalf("estimate: status %d", code)
	}
	if !est2.Cached || est2.PairCount != est.PairCount {
		t.Fatalf("second estimate should be a cache hit with the same value: %+v vs %+v", est, est2)
	}

	// Explain: plan text plus modeled I/O.
	var exp ExplainResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", QuerySpec{
		Tables:     []string{"roads", "streams"},
		Predicates: [][2]string{{"roads", "streams"}},
	}, &exp); code != 200 {
		t.Fatalf("explain: status %d", code)
	}
	if !strings.Contains(exp.Plan, "scan") || exp.ModeledJoinIO <= 0 {
		t.Fatalf("explain: %+v", exp)
	}

	// Query: execute and page.
	var qr QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
		Tables:     []string{"roads", "streams"},
		Predicates: [][2]string{{"roads", "streams"}},
		Limit:      10,
	}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if qr.TotalRows <= 0 {
		t.Fatal("join produced no rows; workload too sparse for the test")
	}
	if len(qr.Rows) > 10 || (qr.TotalRows > 10 && !qr.Truncated) {
		t.Fatalf("pagination: %+v", qr)
	}

	// The paper reports <5% GH error at level 7 on its large datasets; on
	// these small synthetic tables we only demand the estimate is the right
	// order of magnitude.
	actual := float64(qr.TotalRows)
	if est.PairCount < actual/3 || est.PairCount > actual*3 {
		t.Fatalf("GH estimate %.0f outside loose band of actual %d", est.PairCount, qr.TotalRows)
	}

	// Metrics observable: the cache hit, the request counters, and the
	// estimate-vs-actual sample the query recorded.
	metrics := fetchMetrics(t, ts.URL)
	if hits := metricValue(t, metrics, "sdbd_estimate_cache_hits_total"); hits < 1 {
		t.Fatalf("cache hits = %v, want >= 1\n%s", hits, metrics)
	}
	if n := metricValue(t, metrics, "sdbd_estimate_rel_error_count"); n != 1 {
		t.Fatalf("estimate error samples = %v, want 1", n)
	}
	// Labels render in canonical (sorted-key) order.
	if !strings.Contains(metrics, `sdbd_requests_total{code="200",route="POST /v1/estimate"} 2`) {
		t.Fatalf("estimate request counter missing:\n%s", metrics)
	}
	if tables := metricValue(t, metrics, "sdbd_tables"); tables != 2 {
		t.Fatalf("tables gauge = %v, want 2", tables)
	}
}

// TestEstimateMethods exercises every selectable estimation method on the
// same pair and checks they all land within an order of magnitude of GH
// (they estimate the same quantity).
func TestEstimateMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 6})
	createTable(t, ts.URL, "a", "uniform", 2000, 1, false)
	createTable(t, ts.URL, "b", "uniform", 2000, 2, false)

	var gh EstimateResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{Left: "a", Right: "b", Method: "gh"}, &gh)
	// Basic GH is the paper's known heavy over-estimator (its Eqn. 4
	// baseline), so it only has to produce a positive count; the others
	// should land within an order of magnitude of revised GH.
	for _, method := range []string{"basicgh", "ph", "rs", "rswr", "ss"} {
		var est EstimateResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
			EstimateRequest{Left: "a", Right: "b", Method: method, Fraction: 0.2}, &est)
		if code != 200 {
			t.Fatalf("estimate %s: status %d", method, code)
		}
		if est.PairCount <= 0 {
			t.Errorf("method %s: non-positive estimate %.1f", method, est.PairCount)
		}
		if method != "basicgh" && (est.PairCount < gh.PairCount/10 || est.PairCount > gh.PairCount*10) {
			t.Errorf("method %s: %.1f pairs vs GH %.1f", method, est.PairCount, gh.PairCount)
		}
	}

	var bad EstimateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
		EstimateRequest{Left: "a", Right: "b", Method: "nope"}, &bad); code != 400 {
		t.Fatalf("unknown method: status %d", code)
	}
}

// TestMultiwayEstimateAndQuery covers the planner-backed multi-way path.
func TestMultiwayEstimateAndQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "a", "uniform", 1500, 1, false)
	createTable(t, ts.URL, "b", "uniform", 1500, 2, false)
	createTable(t, ts.URL, "c", "uniform", 1500, 3, false)

	var est EstimateResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{
		Tables:     []string{"a", "b", "c"},
		Predicates: [][2]string{{"a", "b"}, {"b", "c"}},
	}, &est)
	if code != 200 || est.Kind != "multiway" || est.PairCount <= 0 {
		t.Fatalf("multiway estimate: status %d, %+v", code, est)
	}

	var qr QueryResponse
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
		Tables:     []string{"a", "b", "c"},
		Predicates: [][2]string{{"a", "b"}, {"b", "c"}},
		Windows:    map[string][4]float64{"a": {0, 0, 0.8, 0.8}},
	}, &qr)
	if code != 200 || len(qr.Columns) != 3 {
		t.Fatalf("multiway query: status %d, %+v", code, qr)
	}
}

// TestRequestValidation checks error paths: bad JSON, unknown fields,
// unknown tables, disconnected queries.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4})
	createTable(t, ts.URL, "a", "uniform", 300, 1, false)

	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(`{"lefty":"a"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		name string
		req  EstimateRequest
	}{
		{"missing right", EstimateRequest{Left: "a"}},
		{"unknown table", EstimateRequest{Left: "a", Right: "ghost"}},
	} {
		var out EstimateResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", tc.req, &out); code/100 != 4 {
			t.Errorf("%s: status %d", tc.name, code)
		}
	}

	var qr QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
		Tables: []string{"a"},
	}, &qr); code != 400 {
		t.Errorf("single-table query: status %d", code)
	}

	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/ghost", nil, &struct{}{}); code != 404 {
		t.Errorf("unknown table get: status %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/ghost", nil, &struct{}{}); code != 404 {
		t.Errorf("unknown table delete: status %d", code)
	}

	// Duplicate without replace conflicts; with replace succeeds.
	var info TableInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", CreateTableRequest{
		Name: "a", Generator: &GeneratorSpec{Kind: "uniform", N: 300, Seed: 9},
	}, &info); code != http.StatusConflict {
		t.Errorf("duplicate create: status %d", code)
	}
	createTable(t, ts.URL, "a", "uniform", 300, 9, true)
}

// TestGeneratorNBounded: a generator spec's n sizes an allocation, so it is
// accepted only in [1, maxGeneratorItems]. The accepted bound is probed with
// an unknown kind, which is rejected after n is checked and before anything
// is allocated.
func TestGeneratorNBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4})
	for _, tc := range []struct {
		n         int
		kind      string
		wantError string
	}{
		{0, "uniform", "generator n must be in"},
		{-1, "uniform", "generator n must be in"},
		{maxGeneratorItems, "no-such-kind", "unknown generator kind"},
		{maxGeneratorItems + 1, "uniform", "generator n must be in"},
		{1 << 40, "uniform", "generator n must be in"},
	} {
		var resp errorResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", CreateTableRequest{
			Name: "g", Generator: &GeneratorSpec{Kind: tc.kind, N: tc.n, Seed: 1},
		}, &resp)
		if code != http.StatusBadRequest || !strings.Contains(resp.Error, tc.wantError) {
			t.Errorf("n=%d kind=%s: status %d error %q, want 400 with %q", tc.n, tc.kind, code, resp.Error, tc.wantError)
		}
	}
	createTable(t, ts.URL, "g", "uniform", 1, 1, false)
}

// TestCreateTableStatus: only a taken name is a 409. A dataset that does not
// build — inline items whose union has zero area fail Dataset.Validate — is
// the client's 400, even under a taken name, and so is a "file" source, which
// the API does not have. Cases run in order on one server.
func TestCreateTableStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4})
	for _, tc := range []struct {
		body      string
		want      int
		wantError string
	}{
		{`{"name":"p","items":[[0.1,0.1,0.1,0.1]]}`, http.StatusBadRequest, "invalid extent"},
		{`{"name":"h","items":[[0.1,0.5,0.2,0.5],[0.3,0.5,0.6,0.5]]}`, http.StatusBadRequest, "invalid extent"},
		{`{"name":"x","file":"/etc/hostname"}`, http.StatusBadRequest, "unknown field"},
		{`{"name":"t","items":[[0.1,0.1,0.2,0.2]]}`, http.StatusCreated, ""},
		{`{"name":"t","items":[[0.1,0.1,0.2,0.2]]}`, http.StatusConflict, "already exists"},
		{`{"name":"t","items":[[0.1,0.1,0.1,0.1]]}`, http.StatusBadRequest, "invalid extent"},
		{`{"name":"t","replace":true,"items":[[0.1,0.1,0.3,0.3]]}`, http.StatusCreated, ""},
	} {
		var resp errorResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", json.RawMessage(tc.body), &resp)
		if code != tc.want || !strings.Contains(resp.Error, tc.wantError) {
			t.Errorf("POST %s: status %d error %q, want %d with %q", tc.body, code, resp.Error, tc.want, tc.wantError)
		}
	}
}

// TestQueryTimeout checks that the per-request timeout propagates into the
// executor as context cancellation and surfaces as 504.
func TestQueryTimeout(t *testing.T) {
	// A 1ns timeout has always expired by the time the executor polls the
	// context, making the abort deterministic regardless of machine speed.
	// Table creation is unaffected: it goes through the store, and the
	// handler registers the table before any context poll.
	_, ts := newTestServer(t, Config{Level: 5, RequestTimeout: time.Nanosecond})
	createTable(t, ts.URL, "x", "uniform", 5000, 1, false)
	createTable(t, ts.URL, "y", "uniform", 5000, 2, false)

	var out errorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
		Tables:     []string{"x", "y"},
		Predicates: [][2]string{{"x", "y"}},
	}, &out)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504 on timed-out join, got %d (%+v)", code, out)
	}
	if !strings.Contains(out.Error, "deadline") {
		t.Fatalf("error should mention the deadline: %+v", out)
	}
}

// TestConcurrentLoad fires 32+ concurrent estimate/query/replace requests at
// a shared catalog — the acceptance criterion for `go test -race`.
func TestConcurrentLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5, CacheSize: 16})
	createTable(t, ts.URL, "a", "uniform", 1200, 1, false)
	createTable(t, ts.URL, "b", "uniform", 1200, 2, false)

	const workers = 48
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0: // estimate
				var est EstimateResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
					EstimateRequest{Left: "a", Right: "b"}, &est); code != 200 {
					errs <- fmt.Sprintf("estimate: status %d", code)
				}
			case 1: // query
				var qr QueryResponse
				if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
					Tables:     []string{"a", "b"},
					Predicates: [][2]string{{"a", "b"}},
					Limit:      5,
				}, &qr); code != 200 {
					errs <- fmt.Sprintf("query: status %d", code)
				}
			case 2: // replace table b while others read it
				var info TableInfo
				if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", CreateTableRequest{
					Name: "b", Replace: true,
					Generator: &GeneratorSpec{Kind: "uniform", N: 1200, Seed: int64(100 + i)},
				}, &info); code != http.StatusCreated {
					errs <- fmt.Sprintf("replace: status %d", code)
				}
			case 3: // metadata reads
				var list struct {
					Tables []TableInfo `json:"tables"`
				}
				if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables", nil, &list); code != 200 {
					errs <- fmt.Sprintf("list: status %d", code)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Every request must have been answered; only the /metrics scrape
	// itself is in flight when the gauge is sampled.
	metrics := fetchMetrics(t, ts.URL)
	if metricValue(t, metrics, "sdbd_inflight_requests") != 1 {
		t.Errorf("inflight gauge should be 1 (the scrape) after load:\n%s", metrics)
	}
}

// TestGracefulShutdown covers ListenAndServe: cancelling the context drains
// the server without error.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0", time.Second) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestHealthz sanity-checks the liveness endpoint shape.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4})
	var h struct {
		Status string `json:"status"`
		Tables int    `json:"tables"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != 200 {
		t.Fatalf("healthz: status %d", code)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}
