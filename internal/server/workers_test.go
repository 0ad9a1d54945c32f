package server

import (
	"fmt"
	"net/http"
	"sort"
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

// TestEstimateWorkers: a build-based estimator must return the identical
// estimate whether the two summaries are built serially or concurrently. Two
// table pairs with identical generators sidestep the estimate cache (its key
// ignores workers — by design, since the value cannot differ).
func TestEstimateWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	for _, n := range []string{"wa", "wc"} {
		createTable(t, ts.URL, n, "uniform", 2000, 51, false)
	}
	for _, n := range []string{"wb", "wd"} {
		createTable(t, ts.URL, n, "uniform", 2000, 52, false)
	}
	for _, method := range []string{"basicgh", "ph", "rs"} {
		var serial, par EstimateResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{
			Left: "wa", Right: "wb", Method: method, Workers: 1,
		}, &serial); code != http.StatusOK {
			t.Fatalf("%s serial: status %d", method, code)
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{
			Left: "wc", Right: "wd", Method: method, Workers: 2,
		}, &par); code != http.StatusOK {
			t.Fatalf("%s parallel: status %d", method, code)
		}
		if par.Cached {
			t.Fatalf("%s: parallel request unexpectedly served from cache", method)
		}
		if serial.PairCount != par.PairCount {
			t.Fatalf("%s: parallel build changed the estimate: %g vs %g",
				method, par.PairCount, serial.PairCount)
		}
	}
}

// TestWorkersValidation: a workers value outside [0, maxRequestWorkers] is a
// client error on both the query and estimate endpoints — negative, and so
// large that honouring it would size a slice and a goroutine pool by it.
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
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate", EstimateRequest{
			Left: "wa", Right: "wb", Method: "ph", Workers: tc.workers,
		}, nil); code != tc.want {
			t.Errorf("workers=%d on estimate: status %d, want %d", tc.workers, code, tc.want)
		}
	}
}
