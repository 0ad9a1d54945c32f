package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/resilience"
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
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want positive whole seconds", ra)
	}
	if m := fetchMetrics(t, ts.URL); !strings.Contains(m, "sdbd_admission_shed_total 1") {
		t.Fatal("metrics missing sdbd_admission_shed_total 1")
	}
	s.Admission().ReleaseDone(time.Millisecond, 0, false)

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

// TestAdmissionSurvivesEmptyWindowedQuery: a query whose windows miss each
// other is planned at almost no rows and returns none. To the limiter it is
// one more fast completion, so it cannot make the server refuse the plain
// joins that follow it.
func TestAdmissionSurvivesEmptyWindowedQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Admission: true})
	createTable(t, ts.URL, "qa", "uniform", 20000, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 20000, 2, false)
	plain := pairQuery()
	plain.Limit = 1
	for i := 0; i < 3; i++ {
		if resp := postJSON(t, ts.URL+"/v1/query", plain); resp.StatusCode != http.StatusOK {
			t.Fatalf("plain query %d before the empty one = %d, want 200", i, resp.StatusCode)
		}
	}
	empty := pairQuery()
	empty.Windows = map[string][4]float64{"qa": {0, 0, .01, .01}, "qb": {.5, .5, .51, .51}}
	var qr QueryResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", empty, &qr); code != http.StatusOK || qr.TotalRows != 0 {
		t.Fatalf("disjoint-window query = %d with %d rows, want 200 with 0", code, qr.TotalRows)
	}
	shed := 0
	for i := 0; i < 50; i++ {
		if resp := postJSON(t, ts.URL+"/v1/query", plain); resp.StatusCode != http.StatusOK {
			shed++
		}
	}
	if shed != 0 {
		t.Fatalf("%d of 50 plain queries after the empty windowed one were refused, want 0", shed)
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

// TestDropTableWALRemoveFault: a dropped table's WAL is removed through the
// WAL filesystem, so a failed remove is seen — and answered 500, since Recover
// brings the table back from the WAL left on disk at the next start.
func TestDropTableWALRemoveFault(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.Disk(), 5)
	_, ts := newTestServer(t, Config{WALDir: dir, WALFS: inj})
	createTable(t, ts.URL, "wd", "uniform", 300, 3, false)
	if resp := postJSON(t, ts.URL+"/v1/tables/wd/insert", InsertRequest{Items: [][4]float64{{0.1, 0.1, 0.2, 0.2}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d, want 200", resp.StatusCode)
	}
	wal := filepath.Join(dir, "wd.wal")
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("no WAL after a mutation: %v", err)
	}

	inj.Add(faultfs.Fault{Op: faultfs.OpRemove, Path: "wd.wal"})
	var body map[string]string
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/wd", nil, &body); code != http.StatusInternalServerError || !strings.Contains(body["error"], "returns on restart") {
		t.Fatalf("DELETE with a failing WAL remove = %d %v, want 500 saying the table returns on restart", code, body)
	}
	if inj.Injected(faultfs.OpRemove) != 1 {
		t.Fatalf("the remove fault fired %d times, want 1: Forget bypassed the WAL filesystem", inj.Injected(faultfs.OpRemove))
	}
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("WAL gone after a failed remove: %v", err)
	}

	// What the 500 warns of: the next start recovers the table.
	s2, err := New(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Ingest().Recover(); err != nil || len(got) != 1 || got[0] != "wd" {
		t.Fatalf("Recover = %v, %v; want [wd]", got, err)
	}
}
