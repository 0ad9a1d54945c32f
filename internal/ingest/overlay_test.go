package ingest

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

// partnerImage is a fixed join partner over the unit square.
func partnerImage(t testing.TB, n int, seed int64) *rtree.Packed {
	t.Helper()
	return rtree.PackItems(rtree.ItemsFromRects(datagen.Uniform("partner", n, 0.03, seed).Items))
}

func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func sameIDs(a, b []int) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireSnapshotMirrors holds a published snapshot's read image to the two
// other descriptions of the same table state: the item log minus the ids in
// live's complement, and a fresh Pack of the snapshot's Index, the tree cut
// from the image —
// for Len, VisitItems (as sets), Search over the probes and the join count
// against partner.
func requireSnapshotMirrors(t *testing.T, snap *sdb.Table, live map[int]bool, partner *rtree.Packed, probes []geom.Rect) {
	t.Helper()
	img, ref := snap.Packed, rtree.Pack(snap.Index)
	if img.Len() != len(live) || ref.Len() != len(live) {
		t.Fatalf("image holds %d items, Pack of the index %d, the log %d live", img.Len(), ref.Len(), len(live))
	}
	seen := make(map[int]bool, len(live))
	img.VisitItems(func(id int, r geom.Rect) {
		if seen[id] || !live[id] || snap.Data.Items[id] != r {
			t.Fatalf("image reports item %d (%v): twice, deleted, or not the log's rectangle", id, r)
		}
		seen[id] = true
	})
	if len(seen) != len(live) {
		t.Fatalf("image reports %d items, the log has %d live", len(seen), len(live))
	}
	for _, q := range probes {
		var brute []int
		for id := range live {
			if snap.Data.Items[id].Intersects(q) {
				brute = append(brute, id)
			}
		}
		got := img.Search(q, nil)
		if !sameIDs(got, brute) || !sameIDs(got, ref.Search(q, nil)) {
			t.Fatalf("probe %v: image %d hits, Pack of the index %d, the log %d",
				q, len(got), len(ref.Search(q, nil)), len(brute))
		}
	}
	if got, want := rtree.PackedJoinCount(img, partner), rtree.PackedJoinCount(ref, partner); got != want {
		t.Fatalf("join against the partner: image %d pairs, Pack of the index %d", got, want)
	}
}

// TestOverlayImageUnderRandomInterleavings drives seeded random sequences of
// insert/delete batches and folds through a Table and checks, after every
// publish, that the image readers get — base planes, tombstones, packed delta
// — is the table: equal to the item log minus its tombstones and to a Pack of
// the tree cut from it. Deletes favour recent ids, so items die in the delta
// as well as in the base, and a long delete-only stretch empties most of a
// base before the next fold.
func TestOverlayImageUnderRandomInterleavings(t *testing.T) {
	const level = 4
	partner := partnerImage(t, 400, 77)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		probes := datagen.Uniform("probes", 12, 0.2, seed+100).Items
		probes = append(probes, geom.NewRect(0, 0, 1, 1))
		store := &fakeStore{}
		tab, err := OpenTable(buildTable(t, "p", 250, level, seed), level, "", store.publish)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[int]bool, 250)
		var ids []int // live ids, insertion order
		for id := 0; id < 250; id++ {
			live[id] = true
			ids = append(ids, id)
		}
		folds, deltaDeletes := 0, 0
		for step := 0; step < 160; step++ {
			drain := step >= 100 && step < 125 // delete-only stretch
			switch {
			case !drain && rng.Intn(8) == 0:
				if _, err := tab.Repack(); err != nil {
					t.Fatal(err)
				}
				folds++
				if d := tab.Degradation(); d.Churn != 0 || d.DeltaItems != 0 || d.Tombstones != 0 {
					t.Fatalf("seed %d step %d: fold left %+v", seed, step, d)
				}
			default:
				var m Mutation
				if !drain {
					for i := rng.Intn(7); i > 0; i-- {
						m.Inserts = append(m.Inserts, rawRect(rng))
					}
				}
				nDel := rng.Intn(7)
				if drain {
					nDel = 8
				}
				inDelta := tab.Degradation().DeltaItems
				for i := 0; i < nDel && len(ids) > 0; i++ {
					k := rng.Intn(len(ids))
					if rng.Intn(2) == 0 { // a recent id: likely still in the delta
						k = len(ids) - 1 - rng.Intn(min(len(ids), 10))
					}
					m.Deletes = append(m.Deletes, ids[k])
					delete(live, ids[k])
					ids = append(ids[:k], ids[k+1:]...)
				}
				if m.Records() == 0 {
					continue
				}
				res, err := tab.Apply(m)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				for _, id := range res.IDs {
					live[id] = true
					ids = append(ids, id)
				}
				if d := tab.Degradation(); d.DeltaItems < inDelta+len(m.Inserts) {
					deltaDeletes++
				}
			}
			requireSnapshotMirrors(t, store.snapshot(), live, partner, probes)
		}
		if folds < 5 || deltaDeletes < 5 {
			t.Fatalf("seed %d: %d folds, %d batches deleting from the delta; the sequence is too tame", seed, folds, deltaDeletes)
		}
	}
}

// TestPublishPacksOnlyTheDelta guards the write path's complexity by counting
// work, not time: a batch's publish may write no more packed item slots than
// the delta holds, however large the table, and must hand readers the planes
// of the snapshot before it.
func TestPublishPacksOnlyTheDelta(t *testing.T) {
	const level = 5
	store := &fakeStore{}
	tab, err := OpenTable(buildTable(t, "big", 5000, level, 31), level, "", store.publish)
	if err != nil {
		t.Fatal(err)
	}
	packedSlots := func() float64 { return obs.Default.Snapshot()["rtree_packed_build_items_total"] }
	rng := rand.New(rand.NewSource(32))
	var prev *sdb.Table
	for batch := 0; batch < 20; batch++ {
		m := Mutation{Deletes: []int{batch * 7, batch*7 + 1}}
		for i := 0; i < 16; i++ {
			m.Inserts = append(m.Inserts, rawRect(rng))
		}
		before := packedSlots()
		if _, err := tab.Apply(m); err != nil {
			t.Fatal(err)
		}
		d := tab.Degradation()
		if wrote := packedSlots() - before; wrote > float64(d.DeltaItems) {
			t.Fatalf("batch %d: publish packed %v item slots, the delta holds %d", batch, wrote, d.DeltaItems)
		}
		snap := store.snapshot()
		if di, ts := snap.Packed.Overlay(); di != d.DeltaItems || ts != d.Tombstones || di != 16*(batch+1) || ts != 2*(batch+1) {
			t.Fatalf("batch %d: published overlay (%d, %d), table reports %+v", batch, di, ts, d)
		}
		if prev != nil && !snap.Packed.SharesPlanes(prev.Packed) {
			t.Fatalf("batch %d: publish did not share the previous snapshot's base planes", batch)
		}
		prev = snap
	}
}

// TestFoldCheckpointFaultStillPublishes fails exactly the WAL rewrite of a
// fold. The fold must stand — its snapshot published, its churn cleared —
// because the in-memory state is valid and the old log still covers it, and
// the truncation must stay owed: the next pass, on a healthy disk, rewrites the
// log without another fold.
func TestFoldCheckpointFaultStillPublishes(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.Disk(), 3)
	store := &fakeStore{}
	base := buildTable(t, "ck", 300, 5, 41)
	m := NewManager(Options{
		Level:   5,
		Dir:     dir,
		Lookup:  func(string) (*sdb.Table, error) { return base, nil },
		Publish: store.publish,
		FS:      inj,
	})
	defer m.Close()
	tab, err := m.Table("ck")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "ck.wal")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}, Deletes: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	pre := store.snapshot()
	walBefore := fileSize(t, walPath)

	inj.Add(faultfs.Fault{Op: faultfs.OpRename}) // the rewrite's last step, on every retry
	ran, err := tab.Repack()
	inj.Clear()
	if !ran || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Repack = (%v, %v), want a fold that reports the injected rewrite failure", ran, err)
	}
	post := store.snapshot()
	if post == pre || post.Packed.SharesPlanes(pre.Packed) {
		t.Fatal("readers still see the pre-fold image after a fold whose checkpoint failed")
	}
	if di, ts := post.Packed.Overlay(); di != 0 || ts != 0 || post.Packed.Len() != 300 {
		t.Fatalf("post-fold image: %d items under overlay (%d, %d)", post.Packed.Len(), di, ts)
	}
	if d := tab.Degradation(); d.Churn != 0 {
		t.Fatalf("fold left churn %d", d.Churn)
	}
	if got := fileSize(t, walPath); got != walBefore {
		t.Fatalf("failed rewrite changed the WAL: %d -> %d bytes", walBefore, got)
	}

	// The churn is gone, so the policy will not fold again; the pass must
	// still pay the truncation it owes.
	foldsBefore := mRepacks.Value()
	m.RepackPass(context.Background())
	if mRepacks.Value() != foldsBefore {
		t.Fatal("the retry folded again instead of rewriting the log alone")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	w, cp, batches, err := OpenWALFS(faultfs.Disk(), nil, walPath)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if len(batches) != 0 || cp.Seq != 30 || len(cp.Deleted) != 30 {
		t.Fatalf("after the retry the WAL holds %d batches past a checkpoint at seq %d with %d tombstones", len(batches), cp.Seq, len(cp.Deleted))
	}
}

// TestOpenTableOnOverlaidSnapshot: a front can be opened on a snapshot another
// front published, whose image carries an overlay (the bench's shadow table
// does exactly this). It starts from a base of its own and mirrors the table
// from the first batch on.
func TestOpenTableOnOverlaidSnapshot(t *testing.T) {
	const level = 4
	partner := partnerImage(t, 300, 78)
	probes := datagen.Uniform("probes", 8, 0.25, 5).Items
	first := &fakeStore{}
	tab, err := OpenTable(buildTable(t, "o", 200, level, 51), level, "", first.publish)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	live := map[int]bool{}
	for id := 0; id < 200; id++ {
		live[id] = true
	}
	apply := func(tab *Table, dels ...int) {
		t.Helper()
		res, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng), rawRect(rng)}, Deletes: dels})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range dels {
			delete(live, id)
		}
		for _, id := range res.IDs {
			live[id] = true
		}
	}
	apply(tab, 3, 4)
	apply(tab, 200) // one from the delta
	seed := first.snapshot()
	if di, ts := seed.Packed.Overlay(); di != 3 || ts != 2 {
		t.Fatalf("seed snapshot overlay (%d, %d), want (3, 2)", di, ts)
	}

	second := &fakeStore{}
	shadow, err := OpenTable(seed, level, "", second.publish)
	if err != nil {
		t.Fatal(err)
	}
	if d := shadow.Degradation(); d.DeltaItems != 0 || d.Tombstones != 0 || d.Live != len(live) {
		t.Fatalf("front opened on an overlaid snapshot starts at %+v", d)
	}
	apply(shadow, 5, 201)
	requireSnapshotMirrors(t, second.snapshot(), live, partner, probes)
	if di, ts := second.snapshot().Packed.Overlay(); di != 2 || ts != 2 {
		t.Fatalf("shadow's first publish carries overlay (%d, %d), want (2, 2): its base is not its own", di, ts)
	}
}

// TestRecoveryIsAFold: a restart replays the WAL into the item log and serves
// a clean packed base — no overlay, however many batches the log held — and
// owes the log's truncation, which the first pass pays.
func TestRecoveryIsAFold(t *testing.T) {
	const level = 4
	dir := t.TempDir()
	partner := partnerImage(t, 300, 79)
	probes := datagen.Uniform("probes", 8, 0.25, 6).Items
	fx := newManagerFixture(t, dir, level, RepackPolicy{})
	fx.lookup["r"] = buildTable(t, "r", 150, level, 61)
	tab := mustTable(t, fx.m, "r")
	rng := rand.New(rand.NewSource(62))
	live := map[int]bool{}
	for id := 0; id < 150; id++ {
		live[id] = true
	}
	for i := 0; i < 12; i++ {
		res, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}, Deletes: []int{i * 3}})
		if err != nil {
			t.Fatal(err)
		}
		delete(live, i*3)
		live[res.IDs[0]] = true
	}
	if err := fx.m.Close(); err != nil {
		t.Fatal(err)
	}

	fx2 := newManagerFixture(t, dir, level, RepackPolicy{})
	if _, err := fx2.m.Recover(); err != nil {
		t.Fatal(err)
	}
	snap := fx2.store.snapshot()
	if di, ts := snap.Packed.Overlay(); di != 0 || ts != 0 {
		t.Fatalf("recovered snapshot carries overlay (%d, %d)", di, ts)
	}
	requireSnapshotMirrors(t, snap, live, partner, probes)
	if d := mustTable(t, fx2.m, "r").Degradation(); d.Churn != 0 {
		t.Fatalf("recovered table reports churn %d", d.Churn)
	}
	fx2.m.RepackPass(context.Background())
	if err := fx2.m.Close(); err != nil {
		t.Fatal(err)
	}
	w, cp, batches, err := OpenWALFS(faultfs.Disk(), nil, filepath.Join(dir, "r.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if len(batches) != 0 || cp.Seq != 12 {
		t.Fatalf("first pass after recovery left %d batches past a checkpoint at seq %d", len(batches), cp.Seq)
	}
}

// BenchmarkApplyPublish is what one 64-record batch (32 inserts, 32 deletes)
// into a 100k-item table costs to apply and publish, with no WAL, at three
// overlay sizes: the bytes and the time must follow the overlay, not the
// table. overlay=N carries N entries (N/2 tombstones, N/2 delta items) plus
// the 32 items one batch inserts, at every iteration: each batch deletes the
// items the batch before it inserted, so nothing folds and nothing grows, and
// the figure per op does not depend on b.N.
func BenchmarkApplyPublish(b *testing.B) {
	const level, n, half = 7, 100_000, 32
	c, err := sdb.NewCatalogAtLevel(level)
	if err != nil {
		b.Fatal(err)
	}
	base, err := c.BuildTable(datagen.Uniform("live", n, 0.004, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, overlay := range []int{0, 1000, 4000} {
		b.Run("overlay="+strconv.Itoa(overlay), func(b *testing.B) {
			store := &fakeStore{}
			tab, err := OpenTable(base, level, "", store.publish)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			inserts := func(k int) []geom.Rect {
				out := make([]geom.Rect, k)
				for i := range out {
					x, y := rng.Float64()*0.99, rng.Float64()*0.99
					out[i] = geom.NewRect(x, y, x+0.004, y+0.004)
				}
				return out
			}
			var setup Mutation
			setup.Inserts = inserts(overlay/2 + half)
			for id := 0; id < overlay/2; id++ {
				setup.Deletes = append(setup.Deletes, id)
			}
			res, err := tab.Apply(setup)
			if err != nil {
				b.Fatal(err)
			}
			prev := res.IDs[overlay/2:]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tab.Apply(Mutation{Inserts: inserts(half), Deletes: prev})
				if err != nil {
					b.Fatal(err)
				}
				prev = res.IDs
			}
			b.StopTimer()
			if d := tab.Degradation(); d.DeltaItems != overlay/2+half || d.Tombstones != overlay/2 {
				b.Fatalf("after %d batches the overlay holds %d delta items and %d tombstones, want %d and %d",
					b.N, d.DeltaItems, d.Tombstones, overlay/2+half, overlay/2)
			}
		})
	}
}
