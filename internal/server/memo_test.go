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
	"sync"
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
// nothing memoized: the technique built anew over copies of the tables' live
// data (new Dataset values, so no Hilbert order either).
func libraryEstimate(t *testing.T, a, b *sdb.Table, method string, fraction float64, level int) core.Estimate {
	t.Helper()
	est, err := freshEstimate(a, b, method, fraction, level)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func freshEstimate(a, b *sdb.Table, method string, fraction float64, level int) (core.Estimate, error) {
	var tech core.Technique
	switch method {
	case "gh":
		return histogram.MustGH(level).Estimate(a.Stats, b.Stats)
	case "basicgh":
		tech = histogram.MustBasicGH(level)
	case "ph":
		tech = histogram.MustPH(level)
	default:
		m := map[string]sample.Method{"rs": sample.RS, "rswr": sample.RSWR, "ss": sample.SS}[method]
		tech = sample.MustNew(m, fraction, sample.WithSeed(1))
	}
	la, _ := a.LiveData()
	sa, err := tech.Build(la.Clone())
	if err != nil {
		return core.Estimate{}, err
	}
	lb, _ := b.LiveData()
	sb, err := tech.Build(lb.Clone())
	if err != nil {
		return core.Estimate{}, err
	}
	return tech.Estimate(sa, sb)
}

func tableOf(t *testing.T, s *Server, name string) *sdb.Table {
	t.Helper()
	tab, err := s.store.Snapshot().Catalog.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
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
			fraction := 0.11
			if method == "ph" || method == "basicgh" {
				fraction = 0
			}
			got := estimateOver(t, ts.URL, EstimateRequest{Left: "live", Right: "static", Method: method, Fraction: fraction})
			want := estimateOver(t, ts.URL, EstimateRequest{Left: "fresh", Right: "static", Method: method, Fraction: fraction})
			if got.PairCount != want.PairCount || got.Selectivity != want.Selectivity {
				t.Errorf("%s: %s on the churned table = (%g, %g), on its survivors (%g, %g)",
					stage, method, got.PairCount, got.Selectivity, want.PairCount, want.Selectivity)
			}
		}
		// The planner's statistics are maintained incrementally and match a
		// rebuild bit for bit; a dead row counted in the cardinality would be
		// off by a factor of two.
		multi := func(name string) EstimateResponse {
			return estimateOver(t, ts.URL, EstimateRequest{Tables: []string{name, "static"},
				Predicates: [][2]string{{name, "static"}}, Windows: map[string][4]float64{name: {0.1, 0.2, 0.7, 0.9}}})
		}
		got, want := multi("live"), multi("fresh")
		if got.PairCount != want.PairCount || got.Selectivity != want.Selectivity || got.EstCost != want.EstCost {
			t.Errorf("%s: windowed multi-way estimate %+v, over the survivors %+v", stage, got, want)
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

// The request record says whether a request computed an estimate or looked it
// up, and the builds counter is derived from it: every miss records its time,
// whatever it had to build, and a hit records none.
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

	// a⋈b builds two summaries, a⋈c one, b⋈c none — but all three compute
	// their estimate, so each is a miss with its time recorded; a⋈b again is
	// a hit and records nothing.
	for i, c := range []struct {
		left, right string
		hit         bool
	}{{"a", "b", false}, {"a", "c", false}, {"b", "c", false}, {"b", "a", true}} {
		if resp := estimateOver(t, ts.URL, EstimateRequest{Left: c.left, Right: c.right, Method: "ph"}); resp.Cached != c.hit {
			t.Fatalf("ph %s⋈%s: cached %v, want %v", c.left, c.right, resp.Cached, c.hit)
		}
		ev := last("/v1/estimate")
		if ev.CacheHit == nil || *ev.CacheHit != c.hit {
			t.Errorf("ph %s⋈%s: event cache_hit %v, want %v", c.left, c.right, ev.CacheHit, c.hit)
		}
		if (ev.EstBuildMicros > 0) == c.hit || (ev.Estimator == "ph") == c.hit {
			t.Errorf("ph %s⋈%s: event estimator=%q est_build_micros=%d, want a miss's time: %v", c.left, c.right, ev.Estimator, ev.EstBuildMicros, !c.hit)
		}
		if got, want := builds("ph"), float64(min(i+1, 3)); got != want {
			t.Errorf("after ph %s⋈%s: sdbd_estimator_builds_total{ph} = %g, want %g", c.left, c.right, got, want)
		}
	}
	// gh follows the same rule: the first pairwise gh estimate is a miss.
	estimateOver(t, ts.URL, EstimateRequest{Left: "a", Right: "b"})
	if ev := last("/v1/estimate"); ev.EstBuildMicros == 0 || ev.Estimator != "gh" {
		t.Errorf("first gh a⋈b: estimator=%q est_build_micros=%d, want a miss's time", ev.Estimator, ev.EstBuildMicros)
	}
	// The planner estimates a⋈b in the predicate's order, on the same memo
	// entry as the pairwise gh estimate above: the plan looks it up.
	q := QuerySpec{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", q, nil); code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}
	if ev := last("/v1/explain"); ev.EstBuildMicros != 0 || ev.Estimator != "" || ev.CacheHit != nil {
		t.Errorf("plan of a⋈b after its estimate: estimator=%q est_build_micros=%d cache_hit=%v, want a lookup and no pairwise record", ev.Estimator, ev.EstBuildMicros, ev.CacheHit)
	}
	// b⋈a in that order is another entry: computed by the first plan, read by
	// the second, whichever endpoint plans.
	q = QuerySpec{Tables: []string{"b", "c"}, Predicates: [][2]string{{"c", "b"}}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/explain", q, nil); code != http.StatusOK {
		t.Fatalf("explain: %d", code)
	}
	if ev := last("/v1/explain"); ev.EstBuildMicros == 0 || ev.Estimator != "gh" {
		t.Errorf("first plan of c⋈b: estimator=%q est_build_micros=%d, want a gh miss", ev.Estimator, ev.EstBuildMicros)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/query", q, nil); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if ev := last("/v1/query"); ev.EstBuildMicros != 0 || ev.Estimator != "" {
		t.Errorf("second plan of c⋈b: estimator=%q est_build_micros=%d, want a lookup", ev.Estimator, ev.EstBuildMicros)
	}
	if got := builds("gh"); got != 2 {
		t.Errorf("sdbd_estimator_builds_total{gh} = %g, want 2", got)
	}
	if got, want := metricValue(t, fetchMetrics(t, ts.URL), "sdbd_estimate_cache_misses_total"), 4.0; got != want {
		t.Errorf("sdbd_estimate_cache_misses_total = %g, want %g: plans are not pairwise estimates", got, want)
	}
}

// TestCacheInvalidationOverHTTP: register, estimate (miss), estimate (hit from
// the table memo), replace the table, estimate (miss again), write to the
// other table, estimate (miss) — asserted through the response's cached flag
// and the /metrics hit/miss counters.
func TestCacheInvalidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "a", "uniform", 800, 1, false)
	createTable(t, ts.URL, "b", "uniform", 800, 2, false)

	estimate := func() EstimateResponse {
		t.Helper()
		var est EstimateResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
			EstimateRequest{Left: "a", Right: "b"}, &est); code != 200 {
			t.Fatalf("estimate: status %d", code)
		}
		return est
	}
	counters := func() (hits, misses float64) {
		t.Helper()
		m := fetchMetrics(t, ts.URL)
		return metricValue(t, m, "sdbd_estimate_cache_hits_total"),
			metricValue(t, m, "sdbd_estimate_cache_misses_total")
	}

	first := estimate()
	if first.Cached {
		t.Fatal("first estimate should miss")
	}
	if hits, misses := counters(); hits != 0 || misses != 1 {
		t.Fatalf("after first estimate: hits=%v misses=%v", hits, misses)
	}

	second := estimate()
	if !second.Cached || second.PairCount != first.PairCount {
		t.Fatalf("second estimate should hit with identical value: %+v", second)
	}
	if hits, misses := counters(); hits != 1 || misses != 1 {
		t.Fatalf("after second estimate: hits=%v misses=%v", hits, misses)
	}

	// Replace table a with different data: the new table value holds no
	// memo, so the estimate is computed again.
	createTable(t, ts.URL, "a", "uniform", 800, 99, true)

	third := estimate()
	if third.Cached {
		t.Fatal("estimate after replace must miss")
	}
	if hits, misses := counters(); hits != 1 || misses != 2 {
		t.Fatalf("after replace: hits=%v misses=%v", hits, misses)
	}
	if third.PairCount == first.PairCount {
		t.Log("note: replaced table produced identical estimate (possible but unlikely)")
	}
	if again := estimate(); !again.Cached || again.PairCount != third.PairCount {
		t.Fatalf("estimate after replace, twice: %+v, want a hit on %+v", again, third)
	}

	// Write to b, the partner a's memo entry names: b's new statistics
	// displace the entry.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables/b/insert", InsertRequest{Items: [][4]float64{{0.4, 0.4, 0.5, 0.5}}}, nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if written := estimate(); written.Cached {
		t.Fatal("estimate after a write must miss")
	}
	if hits, misses := counters(); hits != 2 || misses != 3 {
		t.Fatalf("after write: hits=%v misses=%v", hits, misses)
	}
}

// Estimates race a writer: one goroutine per method estimates a ⋈ b, and b ⋈
// a, on whatever snapshot is current while batches of inserts and deletes
// publish new generations of a. Every answer — computed, or read from a memo
// another goroutine filled — equals a fresh computation on the snapshot it was
// asked of. Run under -race (make race), this is also the memo's data-race
// check.
func TestEstimatesUnderConcurrentWrites(t *testing.T) {
	const level, batches, rounds = 5, 12, 30
	s, ts := newTestServer(t, Config{Level: level})
	createTable(t, ts.URL, "a", "uniform", 1500, 1, false)
	createTable(t, ts.URL, "b", "cluster", 1200, 2, false)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < batches; i++ {
			x := 0.05 * float64(i)
			body, _ := json.Marshal(BatchRequest{Insert: [][4]float64{{x, x, x + 0.1, x + 0.1}, {0.5, x, 0.6, x + 0.05}}, Delete: []int{2 * i, 2*i + 1}})
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tables/a/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
		}
	}()
	for _, method := range memoMethods {
		fraction := 0.0
		if method == "rs" || method == "rswr" || method == "ss" {
			fraction = 0.3
		}
		wg.Add(1)
		go func(method string, fraction float64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := s.store.Snapshot()
				a, errA := snap.Catalog.Table("a")
				b, errB := snap.Catalog.Table("b")
				if errA != nil || errB != nil {
					t.Errorf("snapshot lost a table: %v %v", errA, errB)
					return
				}
				for _, p := range [][2]*sdb.Table{{a, b}, {b, a}} {
					got, _, _, err := p[0].Estimate(method, p[1], fraction)
					if err != nil {
						t.Error(err)
						return
					}
					f := fraction
					if f == 0 && method != "gh" && method != "ph" && method != "basicgh" {
						f = sdb.DefaultSampleFraction
					}
					want, err := freshEstimate(p[0], p[1], method, f, level)
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(got.PairCount) != math.Float64bits(want.PairCount) ||
						math.Float64bits(got.Selectivity) != math.Float64bits(want.Selectivity) {
						t.Errorf("%s %s⋈%s on a snapshot: %+v, fresh %+v", method, p[0].Name, p[1].Name, got, want)
						return
					}
				}
				select {
				case <-done:
					if i > 3 {
						return
					}
				default:
				}
			}
		}(method, fraction)
	}
	wg.Wait()
}
