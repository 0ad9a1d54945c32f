package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/obs"
	"spatialsel/internal/sample"
	"spatialsel/internal/sdb"
	"spatialsel/internal/telemetry"
)

var memoMethods = []string{"gh", "basicgh", "ph", "rs", "rswr", "ss"}

// libraryEstimate answers a pairwise estimate the way the library does with
// nothing memoized: the technique built anew over copies of the tables' data
// (new Dataset values, so no Hilbert order either).
func libraryEstimate(t *testing.T, a, b *sdb.Table, method string, fraction float64, level int) core.Estimate {
	t.Helper()
	var tech core.Technique
	switch method {
	case "gh":
		est, err := histogram.MustGH(level).Estimate(a.Stats, b.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return est
	case "basicgh":
		tech = histogram.MustBasicGH(level)
	case "ph":
		tech = histogram.MustPH(level)
	default:
		m := map[string]sample.Method{"rs": sample.RS, "rswr": sample.RSWR, "ss": sample.SS}[method]
		tech = sample.MustNew(m, fraction, sample.WithSeed(1))
	}
	sa, err := tech.Build(a.Data.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := tech.Build(b.Data.Clone())
	if err != nil {
		t.Fatal(err)
	}
	est, err := tech.Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func tableOf(t *testing.T, s *Server, name string) *sdb.Table {
	t.Helper()
	tab, err := s.store.Snapshot().Catalog.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Warm ≡ cold ≡ library, bit for bit: for every pair of four generated tables
// and every method, a miss answered from the tables' memos — on first touch
// and again once everything is held — is exactly a fresh Technique.Build +
// Estimate over fresh copies of the data.
func TestComputeEstimateWarmEqualsFresh(t *testing.T) {
	const level, fraction = 6, 0.037
	s, err := New(Config{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d"}
	for i, kind := range []string{"uniform", "multicluster", "polyline", "polygons"} {
		d, err := datagen.Generate(kind, names[i], 2500+300*i, datagen.ItemSize, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.store.Register(d, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, na := range names {
		for _, nb := range names[i+1:] {
			a, b := tableOf(t, s, na), tableOf(t, s, nb)
			for _, method := range memoMethods {
				want := libraryEstimate(t, a, b, method, fraction, level)
				for _, pass := range []string{"first", "warm"} {
					got, built, err := computeEstimate(a, b, method, fraction, level, 2)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s %s⋈%s (%s): %+v, library %+v", method, na, nb, pass, got, want)
					}
					if pass == "warm" && built != 0 {
						t.Errorf("%s %s⋈%s: warm call reports %v of building", method, na, nb, built)
					}
				}
			}
		}
	}
}

func estimateOver(t *testing.T, base string, req EstimateRequest) EstimateResponse {
	t.Helper()
	var resp EstimateResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/estimate", req, &resp); code != http.StatusOK {
		t.Fatalf("estimate %+v: status %d", req, code)
	}
	return resp
}

// No stale read: a table replaced through Register, and a table written to
// through the ingest path, are new table values — the next ss, ph and plan
// read the new data, not what the old value had memoized.
func TestMemosDoNotOutliveTheirGeneration(t *testing.T) {
	const level = 5
	s, ts := newTestServer(t, Config{Level: level})
	createTable(t, ts.URL, "a", "uniform", 3000, 1, false)
	createTable(t, ts.URL, "b", "cluster", 2500, 2, false)
	plan := QuerySpec{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}},
		Windows: map[string][4]float64{"a": {0.1, 0.1, 0.8, 0.8}}}

	type answers struct{ ss, ph, plan float64 }
	ask := func() answers {
		t.Helper()
		var ex ExplainResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", plan, &ex); code != http.StatusOK {
			t.Fatalf("explain: %d", code)
		}
		return answers{
			ss:   estimateOver(t, ts.URL, EstimateRequest{Left: "a", Right: "b", Method: "ss", Fraction: 0.4}).PairCount,
			ph:   estimateOver(t, ts.URL, EstimateRequest{Left: "a", Right: "b", Method: "ph"}).PairCount,
			plan: ex.EstRows,
		}
	}
	// library is the same three numbers from nothing but the current
	// snapshot's data and statistics.
	library := func() answers {
		t.Helper()
		a, b := tableOf(t, s, "a"), tableOf(t, s, "b")
		fresh, err := sdb.NewCatalogAtLevel(level)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range []*sdb.Table{a, b} {
			if err := fresh.Attach(&sdb.Table{Name: tab.Name, Data: tab.Data, Index: tab.Index, Packed: tab.Packed, Stats: tab.Stats}); err != nil {
				t.Fatal(err)
			}
		}
		p, err := fresh.Plan(plan.toQuery())
		if err != nil {
			t.Fatal(err)
		}
		return answers{
			ss:   libraryEstimate(t, a, b, "ss", 0.4, level).PairCount,
			ph:   libraryEstimate(t, a, b, "ph", 0, level).PairCount,
			plan: p.Steps[0].EstRows,
		}
	}
	distinct := func(step string, x, y answers) {
		t.Helper()
		if x.ss == y.ss || x.ph == y.ph || x.plan == y.plan {
			t.Fatalf("%s moved too little to show a stale read: %+v -> %+v", step, x, y)
		}
	}

	first := ask()
	if want := library(); first != want {
		t.Fatalf("registered tables: server %+v, library %+v", first, want)
	}
	createTable(t, ts.URL, "b", "uniform", 4000, 9, true)
	replaced := ask()
	if want := library(); replaced != want {
		t.Fatalf("after replacing b: server %+v, library %+v", replaced, want)
	}
	distinct("replacing b", first, replaced)

	items := make([][4]float64, 600)
	for i := range items {
		x, y := 0.2+0.001*float64(i%100), 0.2+0.004*float64(i/100)
		items[i] = [4]float64{x, y, x + 0.02, y + 0.02}
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables/a/insert", InsertRequest{Items: items}, nil); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	written := ask()
	if want := library(); written != want {
		t.Fatalf("after writing to a: server %+v, library %+v", written, want)
	}
	distinct("writing to a", replaced, written)
}

// On a table that has seen deletes, Data.Items still holds the dead rows (ids
// are slots of an append-only log). Cardinalities and every build-based
// estimator must describe the live rows only: each answer equals that of a
// freshly registered table holding the survivors, before the fold (tombstones
// in the served image) and after it (none, but the dead slots remain).
func TestEstimatorsSeeLiveRowsOnly(t *testing.T) {
	const level, n = 5, 4000
	s, ts := newTestServer(t, Config{Level: level})
	// Unit-square data: registration's normalization is then the identity, so
	// the survivors can be registered again bit for bit.
	live := datagen.Uniform("live", n, 0.02, 21)
	live.Extent = geom.UnitSquare
	if _, _, err := s.store.Register(live, false); err != nil {
		t.Fatal(err)
	}
	createTable(t, ts.URL, "static", "multicluster", 3000, 22, false)

	var del []int
	var survivors []geom.Rect
	for id, r := range live.Items {
		if id%2 == 0 {
			del = append(del, id)
		} else {
			survivors = append(survivors, r)
		}
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables/live/delete", DeleteRequest{IDs: del}, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if _, _, err := s.store.Register(dataset.New("fresh", geom.UnitSquare, survivors), false); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		var li, fi TableInfo
		doJSON(t, http.MethodGet, ts.URL+"/v1/tables/live", nil, &li)
		doJSON(t, http.MethodGet, ts.URL+"/v1/tables/fresh", nil, &fi)
		if li.Items != len(survivors) || li.Coverage != fi.Coverage || li.AvgWidth != fi.AvgWidth || li.AvgHeight != fi.AvgHeight {
			t.Errorf("%s: table info %+v, a table of the survivors reads %+v", stage, li, fi)
		}
		if tab := tableOf(t, s, "live"); tab.Data.Len() != n {
			t.Fatalf("%s: Data.Len = %d: the dead slots are gone and this test shows nothing", stage, tab.Data.Len())
		}
		for _, method := range []string{"ph", "basicgh", "rs", "ss"} {
			got := estimateOver(t, ts.URL, EstimateRequest{Left: "live", Right: "static", Method: method, Fraction: 0.11})
			want := estimateOver(t, ts.URL, EstimateRequest{Left: "fresh", Right: "static", Method: method, Fraction: 0.11})
			if got.PairCount != want.PairCount || got.Selectivity != want.Selectivity {
				t.Errorf("%s: %s on the churned table = (%g, %g), on its survivors (%g, %g)",
					stage, method, got.PairCount, got.Selectivity, want.PairCount, want.Selectivity)
			}
		}
		// The planner's statistics are maintained incrementally, so they match
		// a rebuild to rounding, not to the bit; a dead row counted in the
		// cardinality would be off by a factor of two.
		multi := func(name string) EstimateResponse {
			return estimateOver(t, ts.URL, EstimateRequest{Tables: []string{name, "static"},
				Predicates: [][2]string{{name, "static"}}, Windows: map[string][4]float64{name: {0.1, 0.2, 0.7, 0.9}}})
		}
		got, want := multi("live"), multi("fresh")
		for _, v := range [][2]float64{{got.PairCount, want.PairCount}, {got.Selectivity, want.Selectivity}, {got.EstCost, want.EstCost}} {
			if math.Abs(v[0]-v[1]) > 1e-9*math.Abs(v[1]) {
				t.Errorf("%s: windowed multi-way estimate %+v, over the survivors %+v", stage, got, want)
				break
			}
		}
	}
	check("tombstoned")
	tab, err := s.ingest.Table("live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Repack(); err != nil {
		t.Fatal(err)
	}
	if _, tombstones := tableOf(t, s, "live").Packed.Overlay(); tombstones != 0 {
		t.Fatalf("fold left %d tombstones", tombstones)
	}
	check("folded")
}

// A warm ss request costs its samples, not its tables: against two 100k-item
// tables at 200 items a side it allocates a small multiple of the samples
// (two Hilbert-sorted index arrays alone were 3.2 MB), sorts nothing, builds
// no histogram, and the only per-item counter it advances is the draw count.
func TestWarmSSRequestIsSampleSized(t *testing.T) {
	const n, fraction = 100_000, 0.002
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b"} {
		if _, _, err := s.store.Register(datagen.Uniform(name, n, 0.003, int64(i+1)), false); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	ss := func(i int) {
		body, _ := json.Marshal(EstimateRequest{Left: "a", Right: "b", Method: "ss", Fraction: fraction + float64(i)*1e-9})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
		var resp EstimateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Cached {
			t.Fatalf("ss request %d: status %d cached %v err %v", i, rec.Code, resp.Cached, err)
		}
	}
	ss(0) // first touch: both Hilbert orders

	before := obs.Default.Snapshot()
	ss(1)
	after := obs.Default.Snapshot()
	for name, v := range after {
		d := v - before[name]
		switch {
		case name == "sample_draws_total":
			if want := 2 * math.Round(fraction*n); d != want {
				t.Errorf("sample_draws_total advanced by %g, want %g", d, want)
			}
		case strings.HasSuffix(strings.SplitN(name, "{", 2)[0], "_items_total"),
			name == "sample_hilbert_sorts_total", strings.HasPrefix(name, "histogram_builds_total"):
			if d != 0 {
				t.Errorf("a warm ss request advanced %s by %g", name, d)
			}
		}
	}

	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		ss(2 + i)
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("warm ss request: %d KB", per>>10)
	if per > 256<<10 {
		t.Errorf("a warm ss request allocates %d KB, want under 256 KB", per>>10)
	}
}

// The request record says whether a request built a per-generation input or
// looked everything up, and the builds counter is derived from it.
func TestEstimatorBuildIsRecorded(t *testing.T) {
	s, ts := newTestServer(t, Config{Level: 5, EnableTelemetry: true, Telemetry: telemetry.Options{SampleN: 1}})
	for i, name := range []string{"a", "b", "c"} {
		createTable(t, ts.URL, name, "uniform", 2000, int64(i+1), false)
	}
	last := func(route string) telemetry.Event {
		t.Helper()
		evs := s.Telemetry().Flight().Query(telemetry.FlightQuery{Route: route})
		if len(evs) == 0 {
			t.Fatalf("no %s event retained", route)
		}
		return evs[0]
	}
	builds := func(technique string) float64 {
		t.Helper()
		line := fmt.Sprintf(`sdbd_estimator_builds_total{technique=%q}`, technique)
		if m := fetchMetrics(t, ts.URL); strings.Contains(m, line) {
			return metricValue(t, m, line)
		}
		return 0
	}

	// a⋈b builds two summaries, a⋈c one, b⋈c none — though all three miss
	// the estimate cache.
	for i, c := range []struct {
		left, right string
		built       bool
	}{{"a", "b", true}, {"a", "c", true}, {"b", "c", false}} {
		if resp := estimateOver(t, ts.URL, EstimateRequest{Left: c.left, Right: c.right, Method: "ph"}); resp.Cached {
			t.Fatalf("ph %s⋈%s served from the estimate cache", c.left, c.right)
		}
		ev := last("/v1/estimate")
		if (ev.EstBuildMicros > 0) != c.built || (ev.Estimator == "ph") != c.built {
			t.Errorf("ph %s⋈%s: event estimator=%q est_build_micros=%d, want built=%v", c.left, c.right, ev.Estimator, ev.EstBuildMicros, c.built)
		}
		if got, want := builds("ph"), float64(min(i+1, 2)); got != want {
			t.Errorf("after ph %s⋈%s: sdbd_estimator_builds_total{ph} = %g, want %g", c.left, c.right, got, want)
		}
	}
	// The planner's pair selectivity: computed by the first plan of a pair,
	// read by the second, whichever endpoint plans.
	q := QuerySpec{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", q, nil); code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}
	if ev := last("/v1/explain"); ev.EstBuildMicros == 0 || ev.Estimator != "gh" {
		t.Errorf("first plan of a⋈b: estimator=%q est_build_micros=%d, want a gh build", ev.Estimator, ev.EstBuildMicros)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q, nil); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if ev := last("/v1/query"); ev.EstBuildMicros != 0 || ev.Estimator != "" {
		t.Errorf("second plan of a⋈b: estimator=%q est_build_micros=%d, want a lookup", ev.Estimator, ev.EstBuildMicros)
	}
	if got := builds("gh"); got != 1 {
		t.Errorf("sdbd_estimator_builds_total{gh} = %g, want 1", got)
	}
}
