package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzRoutes is every POST route, the mutation routes once against a table
// that exists and once against one that does not, and /v1/query in both its
// plain and ?analyze=1 forms.
var fuzzRoutes = []string{
	"/v1/tables",
	"/v1/tables/roads/insert",
	"/v1/tables/roads/delete",
	"/v1/tables/streams/batch",
	"/v1/tables/ghost/batch",
	"/v1/estimate",
	"/v1/explain",
	"/v1/query",
	"/v1/query?analyze=1",
}

// fuzzSeeds are the valid (and the deliberately refused) bodies the other
// tests in this package post, in wire form, plus the two bodies that found
// bugs in earlier PRs.
var fuzzSeeds = []string{
	// POST /v1/tables
	`{"name":"g","generator":{"kind":"uniform","n":300,"seed":9}}`,
	`{"name":"roads","replace":true,"generator":{"kind":"polyline","n":300,"seed":7}}`,
	`{"name":"inline","items":[[0.1,0.1,0.2,0.2],[0.15,0.15,0.3,0.3]]}`,
	`{"name":"g","generator":{"kind":"no-such-kind","n":4000000,"seed":1}}`,
	`{"name":"g","generator":{"kind":"uniform","n":0}}`,
	`{"name":"p","items":[[0.1,0.1,0.1,0.1]]}`,
	// The removed file source: an unknown field, never a path sdbd opens.
	`{"name":"x","file":"/etc/hostname"}`,
	// POST /v1/estimate (pairwise and multi-way)
	`{"left":"roads","right":"streams"}`,
	`{"left":"roads","right":"streams","method":"ph","fraction":0.2,"workers":2}`,
	`{"left":"roads","right":"streams","method":"rs","fraction":0.2}`,
	`{"left":"roads","right":"ghost"}`,
	`{"left":"roads","right":"streams","method":"nope"}`,
	// POST /v1/explain, /v1/query, /v1/estimate
	`{"tables":["roads","streams"],"predicates":[["roads","streams"]]}`,
	`{"tables":["roads","streams"],"predicates":[["roads","streams"]],"limit":10}`,
	`{"tables":["roads","streams"],"predicates":[["roads","streams"]],"windows":{"roads":[0,0,0.8,0.8]},"offset":5,"workers":4}`,
	`{"tables":["roads"]}`,
	`{"tables":["roads","ghost"],"predicates":[["roads","ghost"]]}`,
	// PR 15: workers was unbounded, and sized slices and goroutine pools.
	`{"tables":["roads","streams"],"predicates":[["roads","streams"]],"workers":1073741824}`,
	`{"left":"roads","right":"streams","method":"ph","workers":-1}`,
	// PR 20: a repeated or mirrored predicate multiplied its selectivity.
	`{"tables":["roads","streams"],"predicates":[["roads","streams"],["streams","roads"],["roads","streams"]]}`,
	// POST /v1/tables/{name}/insert, /delete, /batch
	`{"items":[[0.1,0.1,0.12,0.12],[0.4,0.4,0.45,0.41]]}`,
	`{"items":[[2,2,3,3]]}`,
	`{"ids":[0,1]}`,
	`{"ids":[-1]}`,
	`{"insert":[[0.2,0.2,0.21,0.21]],"delete":[2]}`,
	`{}`,
	// Not JSON objects at all.
	``, `{`, `null`, `[]`, `{"unknown":1}`, `{"tables":7}`,
}

// heavyCreate reports whether body, posted to /v1/tables, would build a table
// too large for a fuzz iteration (generators allocate n rectangles and bulk
// load them; the server's own cap is four million). The harness skips that
// one route for such a body; the cap itself is covered by
// TestGeneratorNBounded.
func heavyCreate(body []byte) bool {
	var req CreateTableRequest
	if json.Unmarshal(body, &req) != nil {
		return false
	}
	return req.Generator != nil && req.Generator.N > 2000
}

// FuzzRequestBodies posts arbitrary bytes to every POST route of a server
// with telemetry and admission on. Whatever the bytes, the server must not
// panic (the middleware would turn that into a 500), must answer with one of
// the statuses the API documents and a JSON body, and must write the request
// down exactly once.
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	cfg := telemetryTestConfig()
	cfg.Level = 5
	cfg.Admission = true
	cfg.RequestTimeout = 5 * time.Second
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	post := func(route string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		return rec
	}
	for _, create := range []string{
		`{"name":"roads","generator":{"kind":"polyline","n":400,"seed":7}}`,
		`{"name":"streams","generator":{"kind":"polyline","n":200,"seed":8}}`,
	} {
		if rec := post("/v1/tables", []byte(create)); rec.Code != http.StatusCreated {
			f.Fatalf("create fixture table: status %d: %s", rec.Code, rec.Body)
		}
	}
	const observedSeries = "sdbd_telemetry_requests_observed_total"
	observed := func() float64 { return s.Telemetry().Registry().Snapshot()[observedSeries] }

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range fuzzRoutes {
			if route == "/v1/tables" && heavyCreate(body) {
				continue
			}
			before := observed()
			rec := post(route, body)
			switch rec.Code {
			case http.StatusOK, http.StatusCreated, http.StatusBadRequest, http.StatusNotFound,
				http.StatusConflict, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			default:
				t.Errorf("POST %s %q: status %d: %s", route, body, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
				t.Errorf("POST %s %q: response is not JSON (Content-Type %q): %s", route, body, ct, rec.Body)
			}
			if got := observed() - before; got != 1 {
				t.Errorf("POST %s %q: flight recorder observed %g requests, want 1", route, body, got)
			}
		}
	})
}
