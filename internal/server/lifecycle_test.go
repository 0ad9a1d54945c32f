package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
	"spatialsel/internal/obs"
	"spatialsel/internal/resilience"
)

// openFront mutates name once over HTTP, which opens its mutation front, and
// returns that front: what a RepackPass holds across a fold.
func openFront(t *testing.T, s *Server, base, name string) *ingest.Table {
	t.Helper()
	if resp := postJSON(t, base+"/v1/tables/"+name+"/insert", InsertRequest{Items: [][4]float64{{0.1, 0.1, 0.2, 0.2}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert into %s = %d, want 200", name, resp.StatusCode)
	}
	front, err := s.Ingest().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// TestLifecycleDropStopsStaleFront: after DELETE answers 200, the dropped
// table's old front can neither fold nor apply its way back into the store,
// with or without a WAL, and its overlay gauges stay at zero.
func TestLifecycleDropStopsStaleFront(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "lcdrop_mem", true: "lcdrop_wal"}[durable]
		t.Run(name, func(t *testing.T) {
			cfg := Config{}
			if durable {
				cfg.WALDir = t.TempDir()
			}
			s, ts := newTestServer(t, cfg)
			createTable(t, ts.URL, name, "uniform", 300, 3, false)
			front := openFront(t, s, ts.URL, name)

			if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/"+name, nil, nil); code != http.StatusOK {
				t.Fatalf("DELETE = %d, want 200", code)
			}
			if _, err := front.Repack(); !errors.Is(err, ingest.ErrClosed) {
				t.Errorf("stale Repack: %v, want ErrClosed", err)
			}
			if _, err := front.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(0.3, 0.3, 0.4, 0.4)}}); !errors.Is(err, ingest.ErrClosed) {
				t.Errorf("stale Apply: %v, want ErrClosed", err)
			}
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/"+name, nil, nil); code != http.StatusNotFound {
				t.Fatalf("GET after DELETE and a stale fold = %d, want 404: the table came back", code)
			}
			metrics := fetchMetrics(t, ts.URL)
			for _, g := range []string{"sdbd_ingest_delta_items", "sdbd_ingest_tombstones"} {
				if v := metricValue(t, metrics, g+`{table="`+name+`"}`); v != 0 {
					t.Errorf("%s of the dropped table = %g, want 0", g, v)
				}
			}
			if durable {
				if _, err := os.Stat(filepath.Join(cfg.WALDir, name+".wal")); !os.IsNotExist(err) {
					t.Errorf("the dropped table's WAL is on disk: %v", err)
				}
			}
		})
	}
}

// TestLifecycleReplaceStopsStaleRepack: after a replace answers 201, a fold
// of the old front does not bring back the old data over the new table.
func TestLifecycleReplaceStopsStaleRepack(t *testing.T) {
	s, ts := newTestServer(t, Config{WALDir: t.TempDir()})
	createTable(t, ts.URL, "lcrep", "uniform", 300, 3, false)
	front := openFront(t, s, ts.URL, "lcrep")
	replaced := createTable(t, ts.URL, "lcrep", "uniform", 200, 4, true)

	if _, err := front.Repack(); !errors.Is(err, ingest.ErrClosed) {
		t.Errorf("stale Repack: %v, want ErrClosed", err)
	}
	var got TableInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/lcrep", nil, &got); code != http.StatusOK {
		t.Fatalf("GET = %d", code)
	}
	if got.Generation != replaced.Generation || got.Items != 200 {
		t.Fatalf("after a stale fold the table is generation %d with %d items, want the replacement's %d with 200",
			got.Generation, got.Items, replaced.Generation)
	}
	// The next mutation opens a front on the new table.
	if fresh := openFront(t, s, ts.URL, "lcrep"); fresh == front {
		t.Fatal("a mutation after the replace reused the old front")
	}
}

// TestLifecycleReplaceWALRemoveFault: a replace whose old WAL cannot be
// removed answers 500, as DELETE does — the old WAL would win at restart.
func TestLifecycleReplaceWALRemoveFault(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.Disk(), 6)
	s, ts := newTestServer(t, Config{WALDir: t.TempDir(), WALFS: inj})
	createTable(t, ts.URL, "lcrf", "uniform", 300, 3, false)
	openFront(t, s, ts.URL, "lcrf")

	inj.Add(faultfs.Fault{Op: faultfs.OpRemove, Path: "lcrf.wal"})
	var body errorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", CreateTableRequest{
		Name: "lcrf", Replace: true, Generator: &GeneratorSpec{Kind: "uniform", N: 200, Seed: 4},
	}, &body)
	if code != http.StatusInternalServerError || !strings.Contains(body.Error, "returns on restart") {
		t.Fatalf("replace with a failing WAL remove = %d %v, want 500 saying the old table returns on restart", code, body)
	}
	if inj.Injected(faultfs.OpRemove) != 1 {
		t.Fatalf("the remove fault fired %d times, want 1", inj.Injected(faultfs.OpRemove))
	}
}

// TestLifecycleServedPathCutsNoTree: every table the server publishes carries
// a pointer tree (sdb.Table.Index, rtree.TreeOf over its image) that only the
// benchmark reads, so no served path may cut one. It drives registration,
// batches, reads of every kind, a fold, a degraded-mode recovery and a restart
// from the WAL through the server, and holds rtree_tree_cut_items_total — the
// items cut into trees, which Len and holding a tree never move — still across
// all of them. Reading one published tree at the end must then move it by that
// tree's items, so the counter is seen to count.
func TestLifecycleServedPathCutsNoTree(t *testing.T) {
	cut := func() float64 { return obs.Default.Snapshot()["rtree_tree_cut_items_total"] }
	before := cut()
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.Disk(), 11)
	s, ts := newTestServer(t, Config{
		WALDir:     dir,
		WALFS:      inj,
		WALRetry:   resilience.RetryPolicy{Max: -1},
		WALBreaker: resilience.BreakerPolicy{Failures: 1, Cooldown: time.Millisecond, MaxCooldown: 4 * time.Millisecond},
	})
	read := func(base string) {
		t.Helper()
		for _, r := range []struct {
			path string
			body any
		}{
			{"/v1/estimate", EstimateRequest{Left: "ca", Right: "cb"}},
			{"/v1/estimate", EstimateRequest{Left: "ca", Right: "cb", Method: "ss"}},
			{"/v1/explain", QueryRequest{Tables: []string{"ca", "cb", "cc"}, Predicates: [][2]string{{"ca", "cb"}, {"cb", "cc"}}}},
			{"/v1/query?analyze=1", QueryRequest{Tables: []string{"ca", "cb"}, Predicates: [][2]string{{"ca", "cb"}}, Limit: 5}},
			{"/v1/query", QueryRequest{Tables: []string{"ca", "cb", "cc"}, Predicates: [][2]string{{"ca", "cb"}, {"cb", "cc"}},
				Windows: map[string][4]float64{"cc": {0.2, 0.2, 0.8, 0.8}}}},
		} {
			if code := doJSON(t, http.MethodPost, base+r.path, r.body, nil); code != http.StatusOK {
				t.Fatalf("POST %s = %d, want 200", r.path, code)
			}
		}
		for _, name := range []string{"ca", "cb", "cc"} {
			if code := doJSON(t, http.MethodGet, base+"/v1/tables/"+name, nil, nil); code != http.StatusOK {
				t.Fatalf("GET %s = %d, want 200", name, code)
			}
		}
	}

	// Registration.
	for i, name := range []string{"ca", "cb", "cc"} {
		createTable(t, ts.URL, name, "uniform", 300, int64(20+i), false)
	}
	read(ts.URL)

	// Batches, enough churn that the policy folds on the next pass.
	var batch BatchRequest
	for i := 0; i < 80; i++ {
		x := 0.1 + float64(i)/100
		batch.Insert = append(batch.Insert, [4]float64{x, 0.3, x + 0.01, 0.31})
	}
	batch.Delete = []int{1, 2, 3}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables/ca/batch", batch, nil); code != http.StatusOK {
		t.Fatalf("batch = %d, want 200", code)
	}
	read(ts.URL)

	// A fold.
	s.Ingest().RepackPass(context.Background())
	tab, err := s.Store().Snapshot().Catalog.Table("ca")
	if err != nil {
		t.Fatal(err)
	}
	if delta, dead := tab.Packed.Overlay(); delta != 0 || dead != 0 {
		t.Fatalf("after the repack pass the image still carries %d delta items and %d tombstones: no fold ran", delta, dead)
	}
	read(ts.URL)

	// Degraded mode: a failing fsync, then the probe that recovers the table.
	ins := InsertRequest{Items: [][4]float64{{0.5, 0.5, 0.52, 0.52}}}
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	if resp := postJSON(t, ts.URL+"/v1/tables/ca/insert", ins); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert on a failing disk = %d, want 503", resp.StatusCode)
	}
	read(ts.URL)
	inj.Clear()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		code := postJSON(t, ts.URL+"/v1/tables/ca/insert", ins).StatusCode
		if code == http.StatusOK {
			break
		}
		if code != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("insert after the fault cleared = %d, want 503 until the probe recovers the table, then 200", code)
		}
	}
	read(ts.URL)
	if err := s.Ingest().Close(); err != nil {
		t.Fatal(err)
	}

	// A restart from the WAL; the never-written tables are registered again.
	s2, ts2 := newTestServer(t, Config{WALDir: dir})
	if names, err := s2.Ingest().Recover(); err != nil || len(names) != 1 || names[0] != "ca" {
		t.Fatalf("Recover = %v, %v; want [ca]", names, err)
	}
	for i, name := range []string{"cb", "cc"} {
		createTable(t, ts2.URL, name, "uniform", 300, int64(21+i), false)
	}
	read(ts2.URL)
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/tables/ca/batch", BatchRequest{Delete: []int{7}}, nil); code != http.StatusOK {
		t.Fatalf("batch after restart = %d, want 200", code)
	}
	read(ts2.URL)

	if got := cut() - before; got != 0 {
		t.Fatalf("the served path cut %g items into pointer trees, want 0", got)
	}
	last, err := s2.Store().Snapshot().Catalog.Table("ca")
	if err != nil {
		t.Fatal(err)
	}
	last.Index.Search(geom.NewRect(0, 0, 1, 1), nil)
	if got, want := cut()-before, float64(last.Index.Len()); got != want {
		t.Fatalf("reading one published tree cut %g items, want its %g", got, want)
	}
}
