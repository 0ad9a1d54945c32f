package server

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
	"spatialsel/internal/iomodel"
	"spatialsel/internal/sdb"
)

// gridItems builds n×n unit-square-spanning rectangles on a raw extent for
// deterministic e2e mutations.
func gridItems(n int) [][4]float64 {
	items := make([][4]float64, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) * 10
			y := float64(j) * 10
			items = append(items, [4]float64{x, y, x + 8, y + 8})
		}
	}
	return items
}

// TestMutationEndpoints drives the write path over HTTP: insert, delete, and
// batch against a created table, with the estimate cache invalidating across
// generations.
func TestMutationEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})

	var info TableInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/tables", CreateTableRequest{Name: "a", Items: gridItems(6)}, &info); code != http.StatusCreated {
		t.Fatalf("create a: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/tables", CreateTableRequest{Name: "b", Items: gridItems(6)}, nil); code != http.StatusCreated {
		t.Fatal("create b failed")
	}

	var est1 EstimateResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/estimate", EstimateRequest{Left: "a", Right: "b"}, &est1); code != http.StatusOK {
		t.Fatalf("estimate: %d", code)
	}

	// Insert: IDs extend the original dataset's positions.
	var mut MutateResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/insert",
		InsertRequest{Items: [][4]float64{{1, 1, 49, 49}, {5, 5, 9, 9}}}, &mut); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	if len(mut.IDs) != 2 || mut.IDs[0] != 36 || mut.Inserted != 2 || mut.Generation == 0 {
		t.Fatalf("insert response %+v", mut)
	}
	if mut.Durable {
		t.Fatal("durable without -wal-dir")
	}

	// The estimate must change (cache invalidated by the generation bump).
	var est2 EstimateResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/estimate", EstimateRequest{Left: "a", Right: "b"}, &est2); code != http.StatusOK {
		t.Fatal("estimate after insert failed")
	}
	if est2.Cached {
		t.Fatal("estimate served from cache after mutation")
	}
	if est2.PairCount <= est1.PairCount {
		t.Fatalf("estimate did not grow after insert: %g -> %g", est1.PairCount, est2.PairCount)
	}

	// Delete through the dedicated endpoint, then a mixed batch.
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/delete", DeleteRequest{IDs: []int{36}}, &mut); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if mut.Deleted != 1 || mut.Seq != 2 {
		t.Fatalf("delete response %+v", mut)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/batch",
		BatchRequest{Insert: [][4]float64{{20, 20, 30, 30}}, Delete: []int{0, 37}}, &mut); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if mut.Inserted != 1 || mut.Deleted != 2 {
		t.Fatalf("batch response %+v", mut)
	}

	var got TableInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/tables/a", nil, &got); code != http.StatusOK {
		t.Fatal("get table failed")
	}
	if got.Generation != mut.Generation {
		t.Fatalf("table generation %d, last mutation %d", got.Generation, mut.Generation)
	}
	// Of the three inserts two were deleted again, out of the delta; the one
	// registered item deleted is a tombstone on the base. The table info and
	// the per-table gauges both say how far the table is from a fold.
	if got.DeltaItems != 1 || got.Tombstones != 1 {
		t.Fatalf("table info reports overlay (%d, %d), want (1, 1)", got.DeltaItems, got.Tombstones)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`sdbd_ingest_delta_items{table="a"} 1`, `sdbd_ingest_tombstones{table="a"} 1`} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	// Error paths: unknown table 404, invalid payloads 400.
	var errResp errorResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/nope/insert",
		InsertRequest{Items: [][4]float64{{0, 0, 1, 1}}}, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown table: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/insert", InsertRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatal("empty insert accepted")
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/delete", DeleteRequest{IDs: []int{99999}}, &errResp); code != http.StatusBadRequest {
		t.Fatal("unknown id accepted")
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/insert",
		InsertRequest{Items: [][4]float64{{-1000, -1000, -999, -999}}}, &errResp); code != http.StatusBadRequest {
		t.Fatal("out-of-extent insert accepted")
	}

	// Query results reflect the mutations exactly.
	var q QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/query",
		QuerySpec{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}}, &q); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if q.TotalRows == 0 {
		t.Fatal("join over mutated table returned nothing")
	}
}

// TestExplainPricesFromRecordedLevelStats: /v1/explain's modeled_join_io comes
// from the level statistics the packed images recorded when they were built,
// and must equal the I/O model over a fresh walk of the pointer trees they
// were built from — for registered tables and again after a fold re-packed one
// side. Between the two, an ingest batch publishes the same base under an
// overlay, and the price stays the base's.
func TestExplainPricesFromRecordedLevelStats(t *testing.T) {
	s, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "a", "uniform", 2000, 1, false)
	createTable(t, ts.URL, "b", "cluster", 1500, 2, false)

	explain := func(packedFromIndex bool) float64 {
		t.Helper()
		var resp ExplainResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/explain",
			QuerySpec{Tables: []string{"a", "b"}, Predicates: [][2]string{{"a", "b"}}}, &resp); code != http.StatusOK {
			t.Fatalf("explain: %d", code)
		}
		snap := s.store.Snapshot()
		base, err := snap.Catalog.Table(resp.Base)
		if err != nil {
			t.Fatal(err)
		}
		first, err := snap.Catalog.Table(resp.Steps[0].Table)
		if err != nil {
			t.Fatal(err)
		}
		want := iomodel.JoinAccesses(base.Index.LevelStats(), first.Index.LevelStats())
		if packedFromIndex && (want <= 0 || math.Abs(resp.ModeledJoinIO-want) > 1e-9*want) {
			t.Fatalf("modeled_join_io = %g, I/O model over the pointer trees = %g", resp.ModeledJoinIO, want)
		}
		return resp.ModeledJoinIO
	}
	before := explain(true)

	rng := rand.New(rand.NewSource(3))
	items := make([][4]float64, 400)
	for i := range items {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		items[i] = [4]float64{x, y, x + 0.05, y + 0.05}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/tables/a/insert", InsertRequest{Items: items}, nil); code != http.StatusOK {
		t.Fatalf("insert: %d", code)
	}
	if overlaid := explain(false); overlaid != before {
		t.Fatalf("modeled_join_io moved %g -> %g on a batch that published the same base", before, overlaid)
	}
	tab, err := s.ingest.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Repack(); err != nil {
		t.Fatal(err)
	}
	if folded := explain(true); folded == before {
		t.Fatalf("modeled_join_io still %g after folding 400 inserts: the new base carries stale statistics", folded)
	}
}

// TestMutationDurability is the end-to-end kill-and-restart: mutate through
// HTTP with a WAL dir, tear the log's tail, bring up a fresh server over the
// same dir, and check the recovered table serves identical join results.
func TestMutationDurability(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Level: 5, WALDir: dir})

	if code := doJSON(t, "POST", ts1.URL+"/v1/tables", CreateTableRequest{Name: "a", Items: gridItems(5)}, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	if code := doJSON(t, "POST", ts1.URL+"/v1/tables", CreateTableRequest{Name: "probe", Items: gridItems(5)}, nil); code != http.StatusCreated {
		t.Fatal("create probe failed")
	}
	var mut MutateResponse
	if code := doJSON(t, "POST", ts1.URL+"/v1/tables/a/insert",
		InsertRequest{Items: [][4]float64{{0, 0, 40, 40}, {1, 1, 2, 2}}}, &mut); code != http.StatusOK {
		t.Fatal("insert failed")
	}
	if !mut.Durable {
		t.Fatal("WAL-backed mutation not marked durable")
	}
	if code := doJSON(t, "POST", ts1.URL+"/v1/tables/a/delete", DeleteRequest{IDs: []int{0, 26}}, &mut); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	wantLive := 25 + 2 - 2
	refPairs := joinPairsOverHTTP(t, ts1.URL, "a", "probe")
	if err := s1.Ingest().Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: a torn fragment lands at the log's tail.
	walPath := filepath.Join(dir, "a.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x77, 0x00, 0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: recovery replays the WAL before traffic is served (run() does
	// this via Ingest().Recover(); tests call it directly).
	s2, ts2 := newTestServer(t, Config{Level: 5, WALDir: dir})
	names, err := s2.Ingest().Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("recovered %v", names)
	}
	var info TableInfo
	if code := doJSON(t, "GET", ts2.URL+"/v1/tables/a", nil, &info); code != http.StatusOK {
		t.Fatal("recovered table not served")
	}
	tbl, err := s2.Store().Snapshot().Catalog.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Index.Len() != wantLive || tbl.Stats.ItemCount() != wantLive {
		t.Fatalf("recovered %d live items (stats %d), want %d", tbl.Index.Len(), tbl.Stats.ItemCount(), wantLive)
	}
	// The probe table was never WAL-backed; recreate it (as -load would) and
	// compare join results against the never-crashed reference.
	if code := doJSON(t, "POST", ts2.URL+"/v1/tables", CreateTableRequest{Name: "probe", Items: gridItems(5)}, nil); code != http.StatusCreated {
		t.Fatal("recreate probe failed")
	}
	if got := joinPairsOverHTTP(t, ts2.URL, "a", "probe"); got != refPairs {
		t.Fatalf("join after recovery: %d rows, want %d", got, refPairs)
	}

	// Mutations keep flowing after recovery, with IDs continuing the log.
	if code := doJSON(t, "POST", ts2.URL+"/v1/tables/a/insert",
		InsertRequest{Items: [][4]float64{{3, 3, 4, 4}}}, &mut); code != http.StatusOK {
		t.Fatal("post-recovery insert failed")
	}
	if mut.IDs[0] != 27 {
		t.Fatalf("post-recovery ID %d, want 27", mut.IDs[0])
	}
}

// joinPairsOverHTTP joins two tables and returns the row count.
func joinPairsOverHTTP(t *testing.T, base, left, right string) int {
	t.Helper()
	var q QueryResponse
	if code := doJSON(t, "POST", base+"/v1/query",
		QuerySpec{Tables: []string{left, right}, Predicates: [][2]string{{left, right}}}, &q); code != http.StatusOK {
		t.Fatalf("join query failed: %d", code)
	}
	return q.TotalRows
}

// TestStoreHammer is the concurrency soak for the store under live ingest:
// writers mutate tables through the ingest path while 32 readers hold
// snapshots and serve estimates off them. Run under -race. Generations must
// be strictly monotonic and every snapshot internally consistent.
func TestStoreHammer(t *testing.T) {
	const level = 4
	store, err := NewStore(level)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x", "y"} {
		if _, _, err := store.Register(datagen.Uniform(name, 400, 0.02, 42), false); err != nil {
			t.Fatal(err)
		}
	}
	manager := ingest.NewManager(ingest.Options{
		Level:   level,
		Lookup:  func(name string) (*sdb.Table, error) { return store.Snapshot().Catalog.Table(name) },
		Publish: store.Publish,
		Repack:  ingest.RepackPolicy{MinChurn: 50, MaxChurnRatio: 0.1},
	})

	var lastGen atomic.Uint64
	var wgWriters, wgReaders sync.WaitGroup
	stop := make(chan struct{})

	// Writers: sustained mutation traffic on both tables.
	for w := 0; w < 2; w++ {
		wgWriters.Add(1)
		go func(name string, seed int64) {
			defer wgWriters.Done()
			tab, err := manager.Table(name)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				x, y := rng.Float64()*0.9, rng.Float64()*0.9
				res, err := tab.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(x, y, x+0.05, y+0.05)}})
				if err != nil {
					t.Error(err)
					return
				}
				// Generations observed by any single writer strictly increase.
				for {
					prev := lastGen.Load()
					if res.Gen <= prev {
						break
					}
					if lastGen.CompareAndSwap(prev, res.Gen) {
						break
					}
				}
				if i%40 == 20 {
					if _, err := tab.Repack(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}([]string{"x", "y"}[w], int64(w+100))
	}

	// 32 readers: each grabs a snapshot and serves estimates from it; the
	// snapshot must stay internally consistent no matter what writers do.
	for rdr := 0; rdr < 32; rdr++ {
		wgReaders.Add(1)
		go func(slot int) {
			defer wgReaders.Done()
			var prev uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := store.Snapshot()
				g := snap.Generation("x") + snap.Generation("y")
				if g < prev {
					t.Errorf("reader %d saw generations go backwards: %d -> %d", slot, prev, g)
					return
				}
				prev = g
				if _, err := snap.Catalog.EstimateJoinSize("x", "y"); err != nil {
					t.Errorf("reader %d: %v", slot, err)
					return
				}
				tx, err := snap.Catalog.Table("x")
				if err != nil {
					t.Errorf("reader %d: %v", slot, err)
					return
				}
				if tx.Index.Len() != tx.Stats.ItemCount() {
					t.Errorf("reader %d: snapshot inconsistent: index %d stats %d",
						slot, tx.Index.Len(), tx.Stats.ItemCount())
					return
				}
			}
		}(rdr)
	}

	wgWriters.Wait()
	close(stop)
	wgReaders.Wait()

	// Final state: both tables grew by 150, generations strictly monotonic
	// overall, estimates still within sanity of the exact join.
	snap := store.Snapshot()
	tx, _ := snap.Catalog.Table("x")
	ty, _ := snap.Catalog.Table("y")
	if tx.Index.Len() != 550 || ty.Index.Len() != 550 {
		t.Fatalf("final sizes %d/%d, want 550/550", tx.Index.Len(), ty.Index.Len())
	}
	if lastGen.Load() == 0 {
		t.Fatal("no generations observed")
	}
	est, err := snap.Catalog.EstimateJoinSize("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(est) || est < 0 {
		t.Fatalf("estimate %g", est)
	}
}
