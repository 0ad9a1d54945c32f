package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
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

// TestPagesDoNotDependOnWorkers pages a two- and a three-table result over
// one snapshot at every pool size and must read the same pages: the row order
// is a function of the plan and the tables' images, not of the worker count,
// so offset/limit neither skip nor repeat rows when a client's requests run at
// different parallelism. The result is read whole in pages of 250 at each
// workers value, then a grid of offsets — around the page boundaries, the
// middle, the end and past it — and limits must return its slices.
func TestPagesDoNotDependOnWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	createTable(t, ts.URL, "qa", "uniform", 12000, 1, false)
	createTable(t, ts.URL, "qb", "uniform", 12000, 2, false)
	createTable(t, ts.URL, "qc", "uniform", 12000, 3, false)

	page := func(q QueryRequest, workers, offset, limit int) QueryResponse {
		q.Workers, q.Offset, q.Limit = workers, offset, limit
		var qr QueryResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q, &qr); code != http.StatusOK {
			t.Fatalf("query at offset %d limit %d workers %d: status %d", offset, limit, workers, code)
		}
		return qr
	}
	for _, q := range []QueryRequest{
		pairQuery(),
		{Tables: []string{"qa", "qb", "qc"}, Predicates: [][2]string{{"qa", "qb"}, {"qb", "qc"}}},
	} {
		var all [][]int
		for offset := 0; ; offset += 250 {
			qr := page(q, 1, offset, 250)
			all = append(all, qr.Rows...)
			if !qr.Truncated {
				break
			}
		}
		if len(all) < 750 {
			t.Fatalf("%d tables: result of %d rows fits fewer than three pages; the test wants several", len(q.Tables), len(all))
		}
		n := len(all)
		for _, workers := range []int{0, 1, 2, 4} {
			var whole [][]int
			for offset := 0; offset < n; offset += 250 {
				whole = append(whole, page(q, workers, offset, 250).Rows...)
			}
			if !reflect.DeepEqual(whole, all) {
				t.Fatalf("%d tables, workers=%d: pages differ from the serial ones", len(q.Tables), workers)
			}
			for _, offset := range []int{0, 1, 249, 250, 251, n / 2, n - 1, n, n + 10} {
				for _, limit := range []int{1, 7, 250} {
					qr := page(q, workers, offset, limit)
					lo := min(offset, n)
					want := all[lo:min(lo+limit, n)]
					if qr.TotalRows != n || qr.Offset != lo || qr.Truncated != (lo+len(want) < n) || len(qr.Rows) != len(want) ||
						len(want) > 0 && !reflect.DeepEqual(qr.Rows, want) {
						t.Fatalf("%d tables, workers=%d, offset %d limit %d: total %d offset %d truncated %v, %d rows; want %d, %d, %v and rows %v",
							len(q.Tables), workers, offset, limit, qr.TotalRows, qr.Offset, qr.Truncated, len(qr.Rows), n, lo, lo+len(want) < n, want)
					}
				}
			}
		}
	}
}

// TestTwoWayQueryMemoryIsBounded: a two-way query's memory is its page, not
// its result. Two tables of 4 000 items, each about [0.1, 0.9]², join in
// 16 M rows; /v1/query with limit 1 must answer that total with one row and
// allocate under 1 MB for the whole request. Making every row allocated
// about 640 MB.
func TestTwoWayQueryMemoryIsBounded(t *testing.T) {
	const n = 4000
	// Level 4 keeps the GH build of 4 000 extent-sized items quick.
	s, ts := newTestServer(t, Config{Level: 4})
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"big1", "big2"} {
		items := make([][4]float64, n)
		for i := range items {
			j := func() float64 { return 0.02 * rng.Float64() }
			items[i] = [4]float64{0.1 + j(), 0.1 + j(), 0.9 - j(), 0.9 - j()}
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", CreateTableRequest{Name: name, Items: items}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
	}
	body, err := json.Marshal(QueryRequest{Tables: []string{"big1", "big2"}, Predicates: [][2]string{{"big1", "big2"}}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("query: status %d, %v: %s", rec.Code, err, rec.Body.Bytes())
	}
	if qr.TotalRows != n*n || len(qr.Rows) != 1 || !qr.Truncated {
		t.Fatalf("total_rows %d with %d rows (truncated %v), want %d with 1", qr.TotalRows, len(qr.Rows), qr.Truncated, n*n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("the query allocated %d B; want under 1 MB", alloc)
	} else {
		t.Logf("the query allocated %d B", alloc)
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
