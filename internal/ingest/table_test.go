package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

// fakeStore stands in for the serving store: it records every published
// snapshot and hands out monotonic generations.
type fakeStore struct {
	mu   sync.Mutex
	gen  uint64
	last *sdb.Table
	pubs int
}

func (f *fakeStore) publish(t *sdb.Table) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gen++
	f.last = t
	f.pubs++
	return f.gen, nil
}

func (f *fakeStore) snapshot() *sdb.Table {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// current returns the last published snapshot and how many there have been.
func (f *fakeStore) current() (*sdb.Table, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.pubs
}

// buildTable makes a registered-style read-only table over a raw extent.
func buildTable(t *testing.T, name string, n int, level int, seed int64) *sdb.Table {
	t.Helper()
	d := datagen.Uniform(name, n, 0.02, seed)
	// Stretch onto a non-unit extent so the raw-coordinate path is exercised.
	raw := make([]geom.Rect, len(d.Items))
	for i, r := range d.Items {
		raw[i] = geom.NewRect(r.MinX*200-50, r.MinY*80+10, r.MaxX*200-50, r.MaxY*80+10)
	}
	c, err := sdb.NewCatalogAtLevel(level)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.BuildTable(dataset.New(name, geom.NewRect(-50, 10, 150, 90), raw))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// rawRect makes a random rectangle inside the buildTable extent.
func rawRect(rng *rand.Rand) geom.Rect {
	x := -50 + rng.Float64()*195
	y := 10 + rng.Float64()*78
	return geom.NewRect(x, y, x+rng.Float64()*4, y+rng.Float64()*1.5)
}

func pairSet(pairs []rtree.JoinPair) map[[2]int]bool {
	s := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		s[[2]int{p.A, p.B}] = true
	}
	return s
}

func samePairs(a, b []rtree.JoinPair) bool {
	sa, sb := pairSet(a), pairSet(b)
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}

func TestTableApplyPublishes(t *testing.T) {
	const level = 5
	store := &fakeStore{}
	base := buildTable(t, "live", 300, level, 1)
	tab, err := OpenTable(base, level, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}

	// Inserts come in raw coordinates and must be normalized; the assigned
	// IDs extend the item log.
	res, err := tab.Apply(Mutation{Inserts: []geom.Rect{
		geom.NewRect(0, 50, 10, 55),
		geom.NewRect(100, 20, 110, 25),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.IDs[0] != 300 || res.IDs[1] != 301 {
		t.Fatalf("assigned IDs %v", res.IDs)
	}
	if res.Gen == 0 || res.Seq != 1 {
		t.Fatalf("result %+v", res)
	}
	snap := store.snapshot()
	if snap == nil || snap.Index.Len() != 302 || snap.Stats.ItemCount() != 302 {
		t.Fatalf("published snapshot wrong: %+v", snap)
	}
	if !geom.UnitSquare.Contains(snap.Data.Items[300]) {
		t.Fatal("inserted item not normalized in snapshot")
	}

	// Delete one old and one new item; the snapshot's index drops them but
	// IDs keep addressing the same slots.
	if _, err := tab.Apply(Mutation{Deletes: []int{0, 301}}); err != nil {
		t.Fatal(err)
	}
	snap = store.snapshot()
	if snap.Index.Len() != 300 || snap.Stats.ItemCount() != 300 {
		t.Fatalf("after deletes: index %d, stats %d", snap.Index.Len(), snap.Stats.ItemCount())
	}
	if tab.Live() != 300 {
		t.Fatalf("Live = %d", tab.Live())
	}

	// Validation: out-of-extent insert, unknown / double deletes.
	if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{geom.NewRect(500, 500, 501, 501)}}); err == nil {
		t.Fatal("out-of-extent insert accepted")
	}
	if _, err := tab.Apply(Mutation{Deletes: []int{0}}); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := tab.Apply(Mutation{Deletes: []int{9999}}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := tab.Apply(Mutation{Deletes: []int{5, 5}}); err == nil {
		t.Fatal("duplicate delete in one batch accepted")
	}
	if _, err := tab.Apply(Mutation{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	// Failed batches must not have published or mutated anything.
	if got := store.snapshot().Index.Len(); got != 300 {
		t.Fatalf("failed batches leaked state: %d", got)
	}
}

// TestTableStatsExactUnderChurn drives sustained mutations and verifies the
// incrementally-maintained statistics stay exactly equal (to float rounding)
// to a histogram rebuilt from scratch over the live items — the property
// that makes GH estimates trustworthy under churn.
func TestTableStatsExactUnderChurn(t *testing.T) {
	const level = 5
	store := &fakeStore{}
	base := buildTable(t, "churn", 400, level, 2)
	tab, err := OpenTable(base, level, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}
	gh := histogram.MustGH(level)
	staticRaw, err := gh.Build(datagen.Cluster("static", 1500, 0.5, 0.5, 0.2, 0.01, 3))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	liveIDs := make([]int, 0, 400)
	for i := 0; i < 400; i++ {
		liveIDs = append(liveIDs, i)
	}
	for round := 0; round < 20; round++ {
		var m Mutation
		for k := 0; k < 10; k++ {
			m.Inserts = append(m.Inserts, rawRect(rng))
		}
		for k := 0; k < 8; k++ {
			pick := rng.Intn(len(liveIDs))
			m.Deletes = append(m.Deletes, liveIDs[pick])
			liveIDs[pick] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
		sort.Ints(m.Deletes)
		res, err := tab.Apply(m)
		if err != nil {
			t.Fatal(err)
		}
		liveIDs = append(liveIDs, res.IDs...)

		snap := store.snapshot()
		liveRects := make([]geom.Rect, 0, len(liveIDs))
		for _, id := range liveIDs {
			liveRects = append(liveRects, snap.Data.Items[id])
		}
		freshRaw, err := gh.Build(dataset.New("fresh", geom.UnitSquare, liveRects))
		if err != nil {
			t.Fatal(err)
		}
		maintained, err := gh.Estimate(snap.Stats, staticRaw.(*histogram.GHSummary))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := gh.Estimate(freshRaw.(*histogram.GHSummary), staticRaw.(*histogram.GHSummary))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(maintained.PairCount-fresh.PairCount) / math.Max(1, fresh.PairCount); rel > 1e-9 {
			t.Fatalf("round %d: maintained estimate %g vs fresh %g (rel %g)",
				round, maintained.PairCount, fresh.PairCount, rel)
		}
	}
}

// TestTableCrashRecovery is the kill-and-restart test: after a simulated
// crash mid-batch (a torn record appended to the log), WAL replay must
// reconstruct exactly the acknowledged batches — same live count, same join
// results as a reference table that never crashed.
func TestTableCrashRecovery(t *testing.T) {
	const level = 5
	dir := t.TempDir()
	walPath := filepath.Join(dir, "t.wal")
	store := &fakeStore{}
	refStore := &fakeStore{}
	base := buildTable(t, "t", 250, level, 5)
	tab, err := OpenTable(base, level, walPath, store.publish)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenTable(base, level, "", refStore.publish)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(6))
	live := make([]int, 0, 250)
	for i := 0; i < 250; i++ {
		live = append(live, i)
	}
	for round := 0; round < 15; round++ {
		var m Mutation
		for k := 0; k < 6; k++ {
			m.Inserts = append(m.Inserts, rawRect(rng))
		}
		for k := 0; k < 4; k++ {
			pick := rng.Intn(len(live))
			m.Deletes = append(m.Deletes, live[pick])
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		sort.Ints(m.Deletes)
		res, err := tab.Apply(m)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, res.IDs...)
		if _, err := ref.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: the process dies while writing the next batch record — the log
	// gains a torn fragment that replay must discard.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := RecoverTable("t", level, walPath, store.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	got, want := store.snapshot(), refStore.snapshot()
	if got.Index.Len() != want.Index.Len() || rec.Live() != ref.Live() {
		t.Fatalf("recovered %d items, reference %d", got.Index.Len(), want.Index.Len())
	}
	if rec.Seq() != ref.Seq() {
		t.Fatalf("recovered seq %d, reference %d", rec.Seq(), ref.Seq())
	}

	// Join both against a probe tree: identical pair sets means identical
	// live rectangles under identical IDs.
	probeTbl := buildTable(t, "probe", 500, level, 7)
	gotPairs := rtree.Join(got.Index, probeTbl.Index)
	wantPairs := rtree.Join(want.Index, probeTbl.Index)
	if !samePairs(gotPairs, wantPairs) {
		t.Fatalf("join results diverge after recovery: %d vs %d pairs", len(gotPairs), len(wantPairs))
	}

	// The recovered statistics match a reference build exactly.
	gh := histogram.MustGH(level)
	est1, err := gh.Estimate(got.Stats, probeTbl.Stats)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := gh.Estimate(want.Stats, probeTbl.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est1.PairCount-est2.PairCount) / math.Max(1, est2.PairCount); rel > 1e-9 {
		t.Fatalf("recovered estimate %g vs reference %g", est1.PairCount, est2.PairCount)
	}

	// And the recovered table keeps accepting mutations with fresh IDs.
	res, err := rec.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs[0] != got.Data.Len() {
		t.Fatalf("post-recovery ID %d, want %d", res.IDs[0], got.Data.Len())
	}
}

// TestTableRepack verifies the background re-pack: it rebuilds the tree via
// bulk load, truncates the WAL to a checkpoint, keeps queries correct, and
// proceeds while concurrent readers and writers stay live.
func TestTableRepack(t *testing.T) {
	const level = 5
	dir := t.TempDir()
	walPath := filepath.Join(dir, "t.wal")
	store := &fakeStore{}
	base := buildTable(t, "t", 200, level, 8)
	tab, err := OpenTable(base, level, walPath, store.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()

	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 40; round++ {
		m := Mutation{Inserts: []geom.Rect{rawRect(rng), rawRect(rng)}}
		if _, err := tab.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	d := tab.Degradation()
	if d.Churn != 80 || d.Live != 280 {
		t.Fatalf("degradation %+v", d)
	}
	walBefore := fileSize(t, walPath)
	before := store.snapshot()

	// Readers hammer published snapshots and a writer keeps mutating while
	// the re-pack runs; nothing may block or misbehave (run under -race).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			q := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := store.snapshot()
				w := geom.NewRect(q.Float64()*0.5, q.Float64()*0.5, 0.6, 0.6)
				for _, id := range snap.Index.Search(w, nil) {
					if !snap.Data.Items[id].Intersects(w) {
						t.Error("index returned non-intersecting item")
						return
					}
				}
			}
		}(int64(100 + i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := rand.New(rand.NewSource(200))
		for i := 0; i < 50; i++ {
			if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(w)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	ran, err := tab.Repack()
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("repack did not run")
	}
	close(stop)
	wg.Wait()

	if d := tab.Degradation(); d.Churn >= 80 {
		t.Fatalf("churn not reset by repack: %+v", d)
	}
	// WAL truncated to (roughly) a checkpoint: replay yields few batches.
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	w2, cp, batches, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if len(batches) > 50 {
		t.Fatalf("WAL still holds %d batches after repack", len(batches))
	}
	if int(cp.Seq) < 40 {
		t.Fatalf("checkpoint seq %d does not cover pre-repack batches", cp.Seq)
	}
	_ = walBefore

	// The packed tree serves the same answers as the pre-repack tree for
	// the items both contain.
	after := store.snapshot()
	if after.Index.Len() < before.Index.Len() {
		t.Fatalf("repack lost items: %d -> %d", before.Index.Len(), after.Index.Len())
	}
	q := geom.NewRect(0.2, 0.2, 0.7, 0.7)
	got := map[int]bool{}
	for _, id := range after.Index.Search(q, nil) {
		got[id] = true
	}
	for _, id := range before.Index.Search(q, nil) {
		if !got[id] {
			t.Fatalf("repack dropped item %d from query results", id)
		}
	}
}

// TestTableRepackDeltaReplay pins the delta path: mutations landing between
// the re-pack's freeze and swap must appear in the packed tree.
func TestTableRepackDeltaReplay(t *testing.T) {
	const level = 4
	store := &fakeStore{}
	base := buildTable(t, "t", 100, level, 10)
	tab, err := OpenTable(base, level, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))

	// Freeze happens inside Repack; race a writer against it repeatedly.
	for round := 0; round < 10; round++ {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		if _, err := tab.Repack(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every live item must be findable in the final published index.
	snap := store.snapshot()
	if snap.Index.Len() != tab.Live() || tab.Live() != 300 {
		t.Fatalf("index %d, live %d", snap.Index.Len(), tab.Live())
	}
	for id, r := range snap.Data.Items {
		found := false
		for _, hit := range snap.Index.Search(r, nil) {
			if hit == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("item %d missing from packed index", id)
		}
	}
}

// TestPublishSnapOrdering pins the out-of-order publication contract: a
// stale snapshot never overwrites a newer one.
func TestPublishSnapOrdering(t *testing.T) {
	store := &fakeStore{}
	base := buildTable(t, "t", 50, 4, 12)
	tab, err := OpenTable(base, 4, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}
	s1 := &sdb.Table{Name: "t", Data: base.Data, Index: base.Index, Packed: base.Packed, Stats: base.Stats}
	s2 := &sdb.Table{Name: "t", Data: base.Data, Index: base.Index, Packed: base.Packed, Stats: base.Stats}
	g2, err := tab.publishSnap(2, false, s2)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := tab.publishSnap(1, false, s1)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatalf("stale publisher got gen %d, want %d", g1, g2)
	}
	if store.pubs != 1 || store.snapshot() != s2 {
		t.Fatalf("stale snapshot published (%d publications)", store.pubs)
	}
}

func TestTableNameAccessors(t *testing.T) {
	store := &fakeStore{}
	base := buildTable(t, "acc", 10, 4, 13)
	tab, err := OpenTable(base, 4, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "acc" || tab.WALPath() != "" || tab.Seq() != 0 {
		t.Fatalf("accessors: %q %q %d", tab.Name(), tab.WALPath(), tab.Seq())
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(tab.Live()); got != "10" {
		t.Fatalf("Live = %s", got)
	}
}
