package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/resilience"
	"spatialsel/internal/telemetry"
)

// postJSON posts body and returns the response with its body closed — these
// tests care about status codes and headers, not payloads.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func pairQuery() QueryRequest {
	return QueryRequest{Tables: []string{"qa", "qb"}, Predicates: [][2]string{{"qa", "qb"}}}
}

func TestAdmissionCostGateShedsDoomedQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{Admission: true, RequestTimeout: 2 * time.Second})
	createTable(t, ts.URL, "qa", "uniform", 400, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 400, 2, false)

	// Uncalibrated, the cost gate admits everything rather than guessing.
	if resp := postJSON(t, ts.URL+"/v1/query", pairQuery()); resp.StatusCode != http.StatusOK {
		t.Fatalf("uncalibrated query status = %d, want 200", resp.StatusCode)
	}
	waitCounter(t, s.Admission().Admitted, 1)

	// Price the model so one cost unit costs ~17 minutes: every query is now
	// predicted to blow the 2s deadline and must be shed at arrival.
	s.Admission().Calibrate(1e12)
	resp := postJSON(t, ts.URL+"/v1/query", pairQuery())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed query status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want positive whole seconds", ra)
	}
	waitCounter(t, s.Admission().Shed, 1)
	if m := fetchMetrics(t, ts.URL); !strings.Contains(m, "sdbd_admission_shed_total 1") {
		t.Fatal("metrics missing sdbd_admission_shed_total 1")
	}

	// Un-calibrating re-opens the gate: the decision is driven purely by the
	// cost model, not sticky state.
	s.Admission().Calibrate(0)
	if resp := postJSON(t, ts.URL+"/v1/query", pairQuery()); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recalibration = %d, want 200", resp.StatusCode)
	}
}

func TestAdmissionConcurrencyLimitSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Admission: true, MaxInflight: 1})
	createTable(t, ts.URL, "qa", "uniform", 200, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 200, 2, false)

	// Hold the single slot; the next query must be refused at the door.
	if !s.Admission().TryAcquire() {
		t.Fatal("could not take the only slot on an idle server")
	}
	resp := postJSON(t, ts.URL+"/v1/query", pairQuery())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query at limit = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	s.Admission().ReleaseShed()

	if resp := postJSON(t, ts.URL+"/v1/query", pairQuery()); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after slot freed = %d, want 200", resp.StatusCode)
	}
}

// A query that cannot be planned answers 400 without touching the admission
// controller: it was never admitted, so it neither counts as "admitted and
// executed" nor feeds its microsecond latency to the AIMD limit as evidence of
// headroom.
func TestAdmissionIgnoresUnplannableQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{Admission: true, MaxInflight: 8})
	createTable(t, ts.URL, "qa", "uniform", 200, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 200, 2, false)
	createTable(t, ts.URL, "qc", "uniform", 200, 3, false)
	unplannable := []QueryRequest{
		{Tables: []string{"qa", "nope"}, Predicates: [][2]string{{"qa", "nope"}}},   // unknown table
		{Tables: []string{"qa", "qb", "qc"}, Predicates: [][2]string{{"qa", "qb"}}}, // disconnected join graph
	}
	refuseAll := func() {
		t.Helper()
		for i := 0; i < 25; i++ {
			for _, q := range unplannable {
				if resp := postJSON(t, ts.URL+"/v1/query", q); resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("unplannable query %v = %d, want 400", q.Tables, resp.StatusCode)
				}
			}
		}
	}

	refuseAll()
	// The one query that executes is the one admission: a slot is released in
	// the handler's defer, so by the time this later request has released
	// its own, any slot a 400 had held would have been counted too.
	if resp := postJSON(t, ts.URL+"/v1/query", pairQuery()); resp.StatusCode != http.StatusOK {
		t.Fatalf("plannable query = %d, want 200", resp.StatusCode)
	}
	waitCounter(t, s.Admission().Admitted, 1)

	// Force a multiplicative decrease so an additive increase would show
	// (at the cap it is invisible): the 400s must leave the limit where it is.
	if !s.Admission().TryAcquire() {
		t.Fatal("could not take a slot on an idle server")
	}
	s.Admission().ReleaseDone(time.Hour, 0, false)
	limit := s.Admission().Limit()
	if limit >= 8 {
		t.Fatalf("limit %g after a forced decrease, want below the cap of 8", limit)
	}
	refuseAll()
	fetchMetrics(t, ts.URL) // one more round trip behind the last 400's handler
	if got := s.Admission().Limit(); got != limit {
		t.Fatalf("limit moved %g -> %g on unplannable queries", limit, got)
	}
	if got := s.Admission().Admitted(); got != 2 {
		t.Fatalf("admitted = %d, want 2 (one query, one forced release)", got)
	}
}

func TestAdmissionDowngradesToSerialUnderPressure(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Admission:       true,
		MaxInflight:     2,
		AdmissionTarget: time.Nanosecond, // everything is "expensive"
		EnableTelemetry: true,
		Telemetry:       telemetry.Options{SampleN: 1}, // retain every request
	})
	createTable(t, ts.URL, "qa", "uniform", 400, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 400, 2, false)

	// Calibrated cheap: predicted cost clears the 30s deadline easily but
	// exceeds the 1ns target, and with limit 2 a single running query already
	// counts as pressure — so the gate downgrades instead of shedding.
	s.Admission().Calibrate(10)
	if resp := postJSON(t, ts.URL+"/v1/query", pairQuery()); resp.StatusCode != http.StatusOK {
		t.Fatalf("downgraded query status = %d, want 200", resp.StatusCode)
	}
	waitCounter(t, s.Admission().Degraded, 1)

	// The flight recorder's wide event shows the verdict and the forced
	// serial execution.
	deadline := time.Now().Add(2 * time.Second)
	for {
		evs := s.Telemetry().Flight().Query(telemetry.FlightQuery{Route: "query", Limit: 1})
		if len(evs) == 1 {
			if evs[0].Admission != telemetry.AdmissionDegraded || evs[0].Workers != 1 {
				t.Fatalf("event admission=%q workers=%d, want degraded/1", evs[0].Admission, evs[0].Workers)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query event never reached the flight recorder")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPagesDoNotDependOnDegradation pages a two- and a three-table result
// twice over one snapshot — once admitted onto the pool, once downgraded to
// serial execution by the cost gate — and must read the same pages: the row
// order is a function of the plan and the tables' images, not of the worker
// count, so offset/limit neither skip nor repeat rows when pressure comes and
// goes between a client's requests.
func TestPagesDoNotDependOnDegradation(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Admission:       true,
		MaxInflight:     2,
		AdmissionTarget: time.Nanosecond, // every priced query is "expensive"
		Workers:         4,
	})
	createTable(t, ts.URL, "qa", "uniform", 12000, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 12000, 2, false)
	createTable(t, ts.URL, "qc", "uniform", 12000, 3, false)

	done := uint64(0)
	pages := func(q QueryRequest, nsPerUnit float64) [][][]int {
		var out [][][]int
		for q.Offset, q.Limit = 0, 250; ; q.Offset += q.Limit {
			// An unpriced model admits onto the pool; a priced one, with one
			// of two slots taken by the query itself, downgrades. The previous
			// request's release recalibrates, so wait it out first.
			waitCounter(t, s.Admission().Admitted, done)
			s.Admission().Calibrate(nsPerUnit)
			var qr QueryResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q, &qr); code != http.StatusOK {
				t.Fatalf("query at offset %d: status %d", q.Offset, code)
			}
			done++
			out = append(out, qr.Rows)
			if !qr.Truncated {
				return out
			}
		}
	}
	for _, q := range []QueryRequest{
		pairQuery(),
		{Tables: []string{"qa", "qb", "qc"}, Predicates: [][2]string{{"qa", "qb"}, {"qb", "qc"}}},
	} {
		degradedBefore := s.Admission().Degraded()
		pooled := pages(q, 0)
		waitCounter(t, s.Admission().Admitted, done)
		if got := s.Admission().Degraded(); got != degradedBefore {
			t.Fatalf("%d tables: %d of the pooled pages were downgraded", len(q.Tables), got-degradedBefore)
		}
		degraded := pages(q, 10)
		waitCounter(t, s.Admission().Degraded, degradedBefore+uint64(len(degraded)))
		if len(pooled) < 3 {
			t.Fatalf("%d tables: result fits %d pages; the test wants several", len(q.Tables), len(pooled))
		}
		if !reflect.DeepEqual(pooled, degraded) {
			t.Fatalf("%d tables: pages read under degradation differ from the pooled ones", len(q.Tables))
		}
	}
}

// waitCounter polls an admission counter until it reaches want — the slot is
// released in the handler's defer, which can run after the client already
// has the response.
func waitCounter(t *testing.T, get func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want %d", get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALDegradedModeOverHTTP(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.Disk(), 7)
	s, ts := newTestServer(t, Config{
		WALDir:     t.TempDir(),
		WALFS:      inj,
		WALRetry:   resilience.RetryPolicy{Max: -1},
		WALBreaker: resilience.BreakerPolicy{Failures: 1, Cooldown: time.Millisecond, MaxCooldown: 4 * time.Millisecond},
	})
	createTable(t, ts.URL, "wt", "uniform", 300, 3, false)
	createTable(t, ts.URL, "wo", "uniform", 300, 4, false)

	ins := InsertRequest{Items: [][4]float64{{0.1, 0.1, 0.2, 0.2}}}
	if resp := postJSON(t, ts.URL+"/v1/tables/wt/insert", ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy insert = %d, want 200", resp.StatusCode)
	}

	// Persistent fsync failure: mutations answer 503 + Retry-After while the
	// table serves reads from its last durable snapshot.
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	resp := postJSON(t, ts.URL+"/v1/tables/wt/insert", ins)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert on degraded table = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("degraded insert Retry-After = %q, want positive", ra)
	}
	if resp := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{Left: "wt", Right: "wo"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate during degraded mode = %d, want 200", resp.StatusCode)
	}
	var info TableInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/wt", nil, &info); code != http.StatusOK || info.Items != 301 {
		t.Fatalf("read during degraded mode = %d items (status %d), want 301", info.Items, code)
	}
	if m := fetchMetrics(t, ts.URL); !strings.Contains(m, "sdbd_wal_degraded_tables 1") {
		t.Fatal("metrics missing sdbd_wal_degraded_tables 1")
	}
	if got := s.Ingest().DegradedTables(); len(got) != 1 || got[0] != "wt" {
		t.Fatalf("DegradedTables = %v, want [wt]", got)
	}

	// Fault clears: the breaker's probe re-arms writes.
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/tables/wt/insert", ins)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("recovery insert = %d, want 503 until probe lands", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("table never recovered over HTTP after fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Ingest().DegradedTables(); len(got) != 0 {
		t.Fatalf("DegradedTables after recovery = %v, want none", got)
	}
}
