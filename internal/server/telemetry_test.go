package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialsel/internal/obs"
	"spatialsel/internal/telemetry"
)

// telemetryTestConfig is the tuned-for-tests telemetry setup: a low slow
// threshold and a small sampling stride.
func telemetryTestConfig() Config {
	return Config{
		EnableTelemetry: true,
		Telemetry: telemetry.Options{
			SlowQuery: 40 * time.Millisecond,
			SampleN:   4,
		},
	}
}

// slowWriter takes 100 ms to accept a response header — a slow client. What
// it is served is retained by the flight recorder as slow, and a span still
// open when the handler answers reports those 100 ms as its own.
type slowWriter struct{ *httptest.ResponseRecorder }

func (w slowWriter) WriteHeader(code int) {
	time.Sleep(100 * time.Millisecond)
	w.ResponseRecorder.WriteHeader(code)
}

// TestTraceIDSanitized is the log-injection regression: client-supplied
// X-Trace-Id values are echoed only when they are 1-64 chars of [0-9a-f-];
// anything else is replaced with a freshly minted ID.
func TestTraceIDSanitized(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		id   string
		echo bool
	}{
		{"deadbeefcafef00d", true},
		{"abc-123-def", true},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false}, // too long
		{"DEADBEEF", false},              // uppercase
		{"abc_def", false},               // underscore
		{`" onload="alert(1)`, false},    // header smuggling attempt
		{"../../etc/passwd", false},      // path-looking junk
		{"g0000000", false},              // non-hex letter
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-Id", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Trace-Id")
		if tc.echo {
			if got != tc.id {
				t.Errorf("valid id %q not echoed: got %q", tc.id, got)
			}
			continue
		}
		if got == tc.id {
			t.Errorf("invalid id %q echoed back verbatim", tc.id)
		}
		if len(got) != 16 || sanitizeTraceID(got) != got {
			t.Errorf("replacement for %q is not a fresh 16-hex id: %q", tc.id, got)
		}
	}
}

// TestMiddlewarePanicRecovery checks the full blast radius of a panicking
// handler: the client sees a 500, the request-error metric increments, the
// flight recorder retains the event flagged as a panic with its span tree,
// and /metrics still renders afterwards.
func TestMiddlewarePanicRecovery(t *testing.T) {
	s, err := New(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.route("GET /panictest", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/panictest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", resp.StatusCode)
	}

	// The request counter recorded the 500 on the panicking route.
	metrics := fetchMetrics(t, ts.URL)
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "sdbd_requests_total{") &&
			strings.Contains(line, `route="GET /panictest"`) {
			found = true
			if !strings.Contains(line, `code="500"`) || !strings.HasSuffix(line, " 1") {
				t.Errorf("panic request metric line = %q, want code=500 value 1", line)
			}
		}
	}
	if !found {
		t.Error("no sdbd_requests_total line for the panicking route")
	}

	// The flight recorder kept the event, flagged as a panic, spans attached.
	events := s.Telemetry().Flight().Query(telemetry.FlightQuery{ErrorsOnly: true})
	if len(events) != 1 {
		t.Fatalf("flight recorder retained %d error events, want 1", len(events))
	}
	ev := events[0]
	if !ev.Panic || ev.Reason != telemetry.ReasonPanic {
		t.Errorf("event panic=%v reason=%q, want panic=true reason=%q", ev.Panic, ev.Reason, telemetry.ReasonPanic)
	}
	if ev.Route != "GET /panictest" || ev.Status != http.StatusInternalServerError {
		t.Errorf("event route=%q status=%d", ev.Route, ev.Status)
	}
	if ev.Spans == nil || ev.Spans.Name != "GET /panictest" {
		t.Errorf("panic event has no span tree: %+v", ev.Spans)
	}

	// The server survived: /metrics still renders and inflight drained (the
	// gauge reads 1 — the /metrics request observing itself).
	after := fetchMetrics(t, ts.URL)
	if metricValue(t, after, "sdbd_inflight_requests") != 1 {
		t.Error("inflight gauge did not drain after panic")
	}
}

// TestTelemetryEndpointsGated checks the pprof gating discipline: the debug
// endpoints 404 when telemetry is disabled and 503 before the first scrape
// tick, then serve once history exists.
func TestTelemetryEndpointsGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	for _, path := range []string{"/v1/debug/timeseries", "/v1/debug/requests"} {
		resp, err := http.Get(off.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("telemetry disabled: GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	s, on := newTestServer(t, telemetryTestConfig())
	for _, path := range []string{"/v1/debug/timeseries", "/v1/debug/requests"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("before first tick: GET %s = %d, want 503", path, resp.StatusCode)
		}
	}
	s.Telemetry().Tick(time.Now())
	for _, path := range []string{"/v1/debug/timeseries", "/v1/debug/requests"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("after first tick: GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestDebugRequestsMinMSBounds: min_ms must be a finite, non-negative number
// whose microseconds an int64 holds. Inf, NaN and 1e300 parse as floats, and
// converting their microseconds to an int64 is implementation-defined — on
// amd64 it gave MinInt64, so min_ms=Inf returned every retained event instead
// of none.
func TestDebugRequestsMinMSBounds(t *testing.T) {
	s, ts := newTestServer(t, telemetryTestConfig())
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	s.Telemetry().Tick(time.Now())
	for _, tc := range []struct {
		minMS string
		want  int
	}{
		{"Inf", http.StatusBadRequest},
		{"%2BInf", http.StatusBadRequest},
		{"-Inf", http.StatusBadRequest},
		{"NaN", http.StatusBadRequest},
		{"1e300", http.StatusBadRequest},
		{"9.3e15", http.StatusBadRequest}, // 9.3e18 µs: past MaxInt64
		{"-1", http.StatusBadRequest},
		{"9e15", http.StatusOK}, // 9e18 µs fits
		{"0", http.StatusOK},
	} {
		var resp RequestsResponse
		code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/requests?min_ms="+tc.minMS, nil, &resp)
		if code != tc.want {
			t.Errorf("min_ms=%s: status %d (%d events), want %d", tc.minMS, code, len(resp.Events), tc.want)
		}
		if tc.minMS == "9e15" && len(resp.Events) != 0 {
			t.Errorf("min_ms=9e15 returned %d events, want none", len(resp.Events))
		}
	}
}

// TestDebugTimeseriesWindowBounds: window must parse as a non-negative
// duration. -5m used to parse, and Store.Query reads a window ≤ 0 as none, so
// it answered with the whole history.
func TestDebugTimeseriesWindowBounds(t *testing.T) {
	s, ts := newTestServer(t, telemetryTestConfig())
	s.Telemetry().Tick(time.Now())
	for _, tc := range []struct {
		window string
		want   int
	}{
		{"-5m", http.StatusBadRequest},
		{"-1ns", http.StatusBadRequest},
		{"NaN", http.StatusBadRequest},
		{"1e300", http.StatusBadRequest},
		{"5", http.StatusBadRequest},
		{"0", http.StatusOK},
		{"5m", http.StatusOK},
		{"", http.StatusOK},
	} {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/timeseries?window="+tc.window, nil, nil); code != tc.want {
			t.Errorf("window=%q: status %d, want %d", tc.window, code, tc.want)
		}
	}
}

// TestTelemetryEndToEnd drives mixed traffic — fast queries, a slow request
// above the threshold, an error, concurrent ingest batches — across several
// manual scrape ticks, then checks the three telemetry surfaces together:
// the time-series store (monotone counters, non-negative rates), the flight
// recorder (slow and error retained with span trees, the fast bulk sampled),
// and the per-pair estimate error (its windowed series match /metrics). Run
// under -race this also exercises every scrape-vs-observe interleaving.
func TestTelemetryEndToEnd(t *testing.T) {
	s, err := New(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.route("GET /slowtest", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	createTable(t, ts.URL, "roads", "polyline", 1500, 7, false)
	createTable(t, ts.URL, "streams", "polyline", 600, 8, false)

	runQuery := func() {
		var qr QueryResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
			Tables:     []string{"roads", "streams"},
			Predicates: [][2]string{{"roads", "streams"}},
			Limit:      10,
		}, &qr)
		if code != http.StatusOK {
			t.Errorf("query status %d", code)
		}
	}

	tick := func() { s.Telemetry().Tick(time.Now()) }
	tick() // tick 1: baseline before traffic

	// Mixed concurrent phase: joins (feeding the error histogram), ingest batches,
	// the slow request, and one error — all in flight together.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runQuery()
			runQuery()
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Generated tables are pre-normalized: inserts must stay inside
			// the unit square.
			base := 0.1 + 0.05*float64(i)
			var mr MutateResponse
			code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables/roads/insert", InsertRequest{
				Items: [][4]float64{{base, base, base + 0.02, base + 0.02}, {base + 0.03, base, base + 0.05, base + 0.01}},
			}, &mr)
			if code != http.StatusOK {
				t.Errorf("insert status %d", code)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/slowtest")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{
			Left: "no-such-table", Right: "streams",
		}, nil)
		if code < 400 {
			t.Errorf("estimate against missing table: status %d, want an error", code)
		}
	}()
	wg.Wait()

	tick() // tick 2: sees the traffic counters
	runQuery()
	tick() // tick 3
	runQuery()
	tick() // tick 4

	// slowServe answers one request to a slow client, so that its event is
	// retained with its span tree whatever the sampling cursor says.
	slowServe := func(target, traceID string, body any) *httptest.ResponseRecorder {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(raw))
		req.Header.Set("X-Trace-Id", traceID)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(slowWriter{rec}, req)
		return rec
	}
	// A query whose planning fails and an explain.
	for path, tables := range map[string][]string{
		"/v1/query":   {"roads", "no-such-table"},
		"/v1/explain": {"roads", "streams"},
	} {
		slowServe(path, "", QuerySpec{Tables: tables, Predicates: [][2]string{{tables[0], tables[1]}}})
	}
	// One join without and with ?analyze=1, then an ingest batch.
	join := QueryRequest{Tables: []string{"roads", "streams"}, Predicates: [][2]string{{"roads", "streams"}}, Limit: 10}
	slowServe("/v1/query", "feed-0", join)
	analyzedResp := slowServe("/v1/query?analyze=1", "feed-1", join)
	// A join whose windows cannot meet returns nothing, and its estimate is
	// scored all the same (against 1).
	scored := metricValue(t, fetchMetrics(t, ts.URL), `sdbd_estimate_rel_error_count{left="roads",right="streams"}`)
	disjoint := join
	disjoint.Windows = map[string][4]float64{"roads": {0, 0, 0.2, 0.2}, "streams": {0.8, 0.8, 1, 1}}
	emptyResp := slowServe("/v1/query?analyze=1", "feed-3", disjoint)
	if n := metricValue(t, fetchMetrics(t, ts.URL), `sdbd_estimate_rel_error_count{left="roads",right="streams"}`); n != scored+1 {
		t.Errorf("sdbd_estimate_rel_error_count went %g → %g over an empty join, want one more observation", scored, n)
	}
	slowServe("/v1/tables/streams/batch", "feed-2", BatchRequest{
		Insert: [][4]float64{{0.2, 0.2, 0.21, 0.21}, {0.6, 0.6, 0.62, 0.61}},
		Delete: []int{0, 1},
	})

	// A sequential burst of cheap requests: with SampleN=4, exactly every
	// fourth fast success is retained, so of these 12 at most 3 survive.
	for i := 0; i < 12; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// ---- time-series store --------------------------------------------------

	resp, err := http.Get(ts.URL + "/v1/debug/timeseries?series=sdbd_requests_total,sdbd_telemetry_scrapes_total&window=1h")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeseries status %d: %s", resp.StatusCode, body)
	}
	// Fixed top-level and per-series field order (determinism at the wire).
	for _, keys := range [][]string{
		{`"now_unix_ms"`, `"ticks"`, `"series"`},
		{`"name"`, `"kind"`, `"points"`},
		{`"t_unix_ms"`, `"value"`, `"rate"`},
	} {
		last := -1
		for _, k := range keys {
			i := strings.Index(string(body), k)
			if i < 0 {
				t.Fatalf("timeseries body missing key %s:\n%s", k, body)
			}
			if i < last {
				t.Errorf("timeseries key %s out of order", k)
			}
			last = i
		}
	}
	var tsr telemetry.TimeseriesResult
	if err := json.Unmarshal(body, &tsr); err != nil {
		t.Fatalf("decode timeseries: %v", err)
	}
	if tsr.Ticks < 4 {
		t.Errorf("ticks %d, want ≥ 4", tsr.Ticks)
	}
	queryCounter := ""
	for _, series := range tsr.Series {
		if series.Kind != "counter" {
			t.Errorf("series %s classified %s, want counter", series.Name, series.Kind)
		}
		for i, p := range series.Points {
			if p.Rate < 0 {
				t.Errorf("series %s point %d: negative rate %g", series.Name, i, p.Rate)
			}
			if i > 0 && p.Value < series.Points[i-1].Value {
				t.Errorf("series %s not monotone at point %d: %g < %g",
					series.Name, i, p.Value, series.Points[i-1].Value)
			}
		}
		if strings.HasPrefix(series.Name, "sdbd_requests_total") &&
			strings.Contains(series.Name, `route="POST /v1/query"`) &&
			strings.Contains(series.Name, `code="200"`) {
			queryCounter = series.Name
			if len(series.Points) < 3 {
				t.Errorf("query counter has %d points, want ≥ 3 ticks of history", len(series.Points))
			}
			first, last := series.Points[0], series.Points[len(series.Points)-1]
			if last.Value <= first.Value {
				t.Errorf("query counter flat across traffic: %g → %g", first.Value, last.Value)
			}
		}
	}
	if queryCounter == "" {
		t.Error("no sdbd_requests_total series for POST /v1/query in timeseries result")
	}

	// ---- flight recorder ------------------------------------------------------

	var slow RequestsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/requests?min_ms=40&route=/slowtest", nil, &slow); code != http.StatusOK {
		t.Fatalf("requests (slow) status %d", code)
	}
	if len(slow.Events) != 1 {
		t.Fatalf("slow filter returned %d events, want the one /slowtest call", len(slow.Events))
	}
	if ev := slow.Events[0]; ev.Reason != telemetry.ReasonSlow || ev.Spans == nil || ev.Spans.Name != "GET /slowtest" {
		t.Errorf("slow event reason=%q spans=%+v", ev.Reason, ev.Spans)
	}
	if slow.SlowThresholdMS != 40 {
		t.Errorf("slow threshold %gms, want 40", slow.SlowThresholdMS)
	}

	var errs RequestsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/requests?errors=1&route=/v1/estimate", nil, &errs); code != http.StatusOK {
		t.Fatalf("requests (errors) status %d", code)
	}
	if len(errs.Events) != 1 {
		t.Fatalf("error filter returned %d events, want the one failed estimate", len(errs.Events))
	}
	if ev := errs.Events[0]; ev.Status < 400 || ev.Reason != telemetry.ReasonError || ev.Spans == nil {
		t.Errorf("error event status=%d reason=%q spans-nil=%v", ev.Status, ev.Reason, ev.Spans == nil)
	}

	// The failed query's plan span ended when planning did: it must not have
	// absorbed the 100 ms the error response then took.
	var failed RequestsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/requests?errors=1&route=/v1/query", nil, &failed); code != http.StatusOK {
		t.Fatalf("requests (failed query) status %d", code)
	}
	if len(failed.Events) != 1 || failed.Events[0].Spans == nil || failed.Events[0].DurationMicros < 100_000 {
		t.Fatalf("failed-query filter returned %+v, want the one slow-answered planning failure", failed.Events)
	}
	planSpans := 0
	for _, sp := range failed.Events[0].Spans.Children {
		if sp.Name == "plan" {
			planSpans++
			if sp.ElapsedMicros >= 50_000 {
				t.Errorf("failed query's plan span reports %d µs: left open past the planning error", sp.ElapsedMicros)
			}
		}
	}
	if planSpans != 1 {
		t.Errorf("failed query's span tree has %d plan spans, want 1", planSpans)
	}

	// Explain events are annotated like estimate and query events.
	var explained RequestsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/requests?route=/v1/explain", nil, &explained); code != http.StatusOK {
		t.Fatalf("requests (explain) status %d", code)
	}
	if len(explained.Events) != 1 {
		t.Fatalf("explain filter returned %d events, want the one slow-answered explain", len(explained.Events))
	}
	if ev := explained.Events[0]; ev.Status != http.StatusOK || fmt.Sprint(ev.Tables) != "[roads streams]" || ev.EstRows == nil || *ev.EstRows <= 0 {
		t.Errorf("explain event status=%d tables=%v est_rows=%v, want 200 with both annotations", ev.Status, ev.Tables, ev.EstRows)
	}

	// One trace root per request: ?analyze=1 opens its "query" span under the
	// middleware's root, so the retained event holds the same operator tree as
	// the plain query's, and the analyze payload is that subtree.
	byTrace := make(map[string]telemetry.Event)
	for _, ev := range s.Telemetry().Flight().Query(telemetry.FlightQuery{}) {
		byTrace[ev.TraceID] = ev
	}
	var shape func(rs []*obs.SpanReport) string
	shape = func(rs []*obs.SpanReport) string {
		var b strings.Builder
		for _, r := range rs {
			b.WriteString(r.Name + "(" + shape(r.Children) + ")")
		}
		return b.String()
	}
	plainEv, analyzedEv := byTrace["feed-0"], byTrace["feed-1"]
	if plainEv.Spans == nil || analyzedEv.Spans == nil {
		t.Fatalf("plain / analyzed query events not retained with spans: %+v / %+v", plainEv, analyzedEv)
	}
	ops := shape(plainEv.Spans.Children)
	if !strings.HasPrefix(ops, "plan()execute(join ") || !strings.Contains(ops, "rtree.packed_join") {
		t.Errorf("plain query's span tree = %s, want plan, execute → join → rtree.packed_join", ops)
	}
	if kids := analyzedEv.Spans.Children; len(kids) != 1 || kids[0].Name != "query" {
		t.Fatalf("analyzed query's root has children %s, want the one query span", shape(kids))
	}
	analyzedTree := analyzedEv.Spans.Children[0]
	if got := shape(analyzedTree.Children); got != ops {
		t.Errorf("analyzed query's operators = %s, plain query's = %s", got, ops)
	}
	var analyzedBody QueryResponse
	if err := json.Unmarshal(analyzedResp.Body.Bytes(), &analyzedBody); err != nil {
		t.Fatalf("decode analyze response: %v", err)
	}
	if analyzedBody.TraceID != "feed-1" || !reflect.DeepEqual(analyzedBody.Analyze, analyzedTree) {
		t.Errorf("analyze payload (trace %q) is not the retained event's subtree:\n%s\nvs\n%s",
			analyzedBody.TraceID, analyzedBody.AnalyzeText, analyzedTree.Text())
	}

	// The empty join's record carries the error its last operator span reports.
	var emptyBody QueryResponse
	if err := json.Unmarshal(emptyResp.Body.Bytes(), &emptyBody); err != nil {
		t.Fatalf("decode empty join's response: %v", err)
	}
	lastOp := emptyBody.Analyze.Children[1].Children
	opErr, _ := lastOp[len(lastOp)-1].Attrs["rel_error"].(float64)
	if ev := byTrace["feed-3"]; emptyBody.TotalRows != 0 || ev.Rows != 0 || ev.RelError == nil ||
		*ev.RelError != opErr || opErr != emptyBody.EstRows || opErr <= 0 {
		t.Errorf("empty join: total_rows=%d est_rows=%g, event rows=%d rel_error=%v, last operator's rel_error=%g; want the estimate scored against 1 in both",
			emptyBody.TotalRows, emptyBody.EstRows, ev.Rows, ev.RelError, opErr)
	}

	// Writes are annotated too: the table and the batch's record count.
	if ev := byTrace["feed-2"]; ev.Status != http.StatusOK || fmt.Sprint(ev.Tables) != "[streams]" || ev.Rows != 4 {
		t.Errorf("batch event status=%d tables=%v rows=%d, want 200 [streams] 4", ev.Status, ev.Tables, ev.Rows)
	}

	var all RequestsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/requests", nil, &all); code != http.StatusOK {
		t.Fatalf("requests status %d", code)
	}
	healthz, queries := 0, 0
	var queryEv *telemetry.Event
	for i := range all.Events {
		ev := &all.Events[i]
		switch ev.Route {
		case "GET /healthz":
			healthz++
			if ev.Reason != telemetry.ReasonSample {
				t.Errorf("healthz event retained with reason %q", ev.Reason)
			}
		case "POST /v1/query":
			queries++
			queryEv = ev
		}
		// Wire-format determinism: events come back newest-first by seq.
		if i > 0 && all.Events[i-1].Seq <= ev.Seq {
			t.Errorf("events not in descending seq order at %d", i)
		}
	}
	if healthz == 0 || healthz >= 12 {
		t.Errorf("of 12 fast /healthz requests %d retained, want sampled (≥1, <12)", healthz)
	}
	if queryEv == nil {
		t.Fatal("no POST /v1/query event retained")
	}
	if len(queryEv.Tables) != 2 || queryEv.Spans == nil || len(queryEv.Spans.Children) == 0 {
		t.Errorf("query event missing annotations or span tree: tables=%v spans=%+v",
			queryEv.Tables, queryEv.Spans)
	}
	if queryEv.EstRows == nil || queryEv.RelError == nil {
		t.Error("query event missing est_rows / rel_error annotations")
	}

	// ---- per-pair estimate error over a window -------------------------------

	// The store samples the pair's error histogram like any other series, so
	// its _sum and _count over a window are the pair's recent mean error.
	tick()
	const pair = `{left="roads",right="streams"}`
	metrics := fetchMetrics(t, ts.URL)
	var errSeries telemetry.TimeseriesResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/timeseries?series=sdbd_estimate_rel_error&window=1h", nil, &errSeries); code != http.StatusOK {
		t.Fatalf("timeseries status %d", code)
	}
	last := map[string]float64{}
	for _, series := range errSeries.Series {
		if n := len(series.Points); n > 0 {
			last[series.Name] = series.Points[n-1].Value
		}
	}
	count, sum := last["sdbd_estimate_rel_error_count"+pair], last["sdbd_estimate_rel_error_sum"+pair]
	if want := metricValue(t, metrics, "sdbd_estimate_rel_error_count"+pair); count != want || count == 0 {
		t.Errorf("windowed error count %g, want the exposition's %g (> 0); series %v", count, want, last)
	}
	if !(sum > 0) || sum != metricValue(t, metrics, "sdbd_estimate_rel_error_sum"+pair) {
		t.Errorf("windowed error sum %g does not match the exposition", sum)
	}
}
