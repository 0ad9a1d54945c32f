package server

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// queryRows runs a two-way join query with the given workers setting and
// returns the row set as sorted strings.
func queryRows(t *testing.T, base string, workers int) []string {
	t.Helper()
	var resp QueryResponse
	code := doJSON(t, http.MethodPost, base+"/v1/query", QueryRequest{
		Tables:     []string{"wa", "wb"},
		Predicates: [][2]string{{"wa", "wb"}},
		Workers:    workers,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("query workers=%d: status %d", workers, code)
	}
	keys := make([]string, 0, len(resp.Rows))
	for _, row := range resp.Rows {
		keys = append(keys, fmt.Sprint(row))
	}
	sort.Strings(keys)
	return keys
}

// TestQueryWorkersMatchesSerial: the per-request workers knob must not change
// the result set — serial, auto, and forced pool sizes all agree.
func TestQueryWorkersMatchesSerial(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "wa", "uniform", 3000, 41, false)
	createTable(t, ts.URL, "wb", "uniform", 3000, 42, false)

	want := queryRows(t, ts.URL, 1)
	if len(want) == 0 {
		t.Fatal("serial query returned no rows; test is vacuous")
	}
	for _, workers := range []int{0, 2, 4} {
		got := queryRows(t, ts.URL, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row set diverges at %d: %s vs %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPagesDoNotDependOnWorkers pages a two- and a three-table result twice
// over one snapshot — once on the server's pool, once serial — and must read
// the same pages: the row order is a function of the plan and the tables'
// images, not of the worker count, so offset/limit neither skip nor repeat
// rows when a client's requests run at different parallelism.
func TestPagesDoNotDependOnWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	createTable(t, ts.URL, "qa", "uniform", 12000, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 12000, 2, false)
	createTable(t, ts.URL, "qc", "uniform", 12000, 3, false)

	pages := func(q QueryRequest, workers int) [][][]int {
		var out [][][]int
		q.Workers = workers
		for q.Offset, q.Limit = 0, 250; ; q.Offset += q.Limit {
			var qr QueryResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q, &qr); code != http.StatusOK {
				t.Fatalf("query at offset %d: status %d", q.Offset, code)
			}
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
		pooled := pages(q, 0)
		serial := pages(q, 1)
		if len(pooled) < 3 {
			t.Fatalf("%d tables: result fits %d pages; the test wants several", len(q.Tables), len(pooled))
		}
		if !reflect.DeepEqual(pooled, serial) {
			t.Fatalf("%d tables: pages read serially differ from the pooled ones", len(q.Tables))
		}
	}
}

// TestWorkersValidation: a workers value outside [0, maxRequestWorkers] is a
// client error on the query endpoint — negative, and so large that honouring
// it would size a slice and a goroutine pool by it. The estimate endpoint has
// no workers field (an estimate builds no index, so nothing is left to
// parallelize): any value is an unknown field.
func TestWorkersValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4})
	createTable(t, ts.URL, "wa", "uniform", 100, 61, false)
	createTable(t, ts.URL, "wb", "uniform", 100, 62, false)

	for _, tc := range []struct {
		workers int
		want    int
	}{
		{-1, http.StatusBadRequest},
		{maxRequestWorkers, http.StatusOK},
		{maxRequestWorkers + 1, http.StatusBadRequest},
		{10_000_000, http.StatusBadRequest},
	} {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
			Tables:     []string{"wa", "wb"},
			Predicates: [][2]string{{"wa", "wb"}},
			Workers:    tc.workers,
		}, nil); code != tc.want {
			t.Errorf("workers=%d on query: status %d, want %d", tc.workers, code, tc.want)
		}
		var e errorResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", map[string]any{
			"left": "wa", "right": "wb", "method": "ph", "workers": tc.workers,
		}, &e); code != http.StatusBadRequest || !strings.Contains(e.Error, "unknown field") {
			t.Errorf("workers=%d on estimate: status %d (%q), want 400 for an unknown field", tc.workers, code, e.Error)
		}
	}
}

// TestQueryPagingValidation: a negative offset or limit is a client error on
// the query endpoint, as an out-of-range workers is. Both used to be clamped:
// offset -5 served page 0 and limit -1 served the server's row cap. 0 keeps
// its meaning of "default", and an offset past the end is an empty page.
func TestQueryPagingValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 4, MaxResultRows: 7})
	createTable(t, ts.URL, "pa", "polyline", 3000, 7, false)
	createTable(t, ts.URL, "pb", "polyline", 800, 8, false)

	for _, tc := range []struct {
		offset, limit int
		want, rows    int
	}{
		{-5, 0, http.StatusBadRequest, 0},
		{0, -1, http.StatusBadRequest, 0},
		{-1, -1, http.StatusBadRequest, 0},
		{0, 0, http.StatusOK, 7},
		{0, 3, http.StatusOK, 3},
		{1 << 30, 3, http.StatusOK, 0},
	} {
		var qr QueryResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", QueryRequest{
			Tables:     []string{"pa", "pb"},
			Predicates: [][2]string{{"pa", "pb"}},
			Offset:     tc.offset,
			Limit:      tc.limit,
		}, &qr)
		if code != tc.want || len(qr.Rows) != tc.rows {
			t.Errorf("offset %d limit %d: status %d with %d rows, want %d with %d", tc.offset, tc.limit, code, len(qr.Rows), tc.want, tc.rows)
		}
		if code == http.StatusOK && qr.TotalRows < 7 {
			t.Fatalf("join of %d rows is too small to page", qr.TotalRows)
		}
	}
}
