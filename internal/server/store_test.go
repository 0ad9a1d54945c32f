package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

func TestStoreSnapshotIsolation(t *testing.T) {
	s, err := NewStore(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Register(datagen.Uniform("a", 300, 0.01, 1), false); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()

	// Register a second table: the old snapshot must not see it.
	if _, _, err := s.Register(datagen.Uniform("b", 300, 0.01, 2), false); err != nil {
		t.Fatal(err)
	}
	if names := before.Catalog.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("old snapshot mutated: %v", names)
	}
	after := s.Snapshot()
	if names := after.Catalog.Names(); len(names) != 2 {
		t.Fatalf("new snapshot missing table: %v", names)
	}

	// Replace bumps the generation; the old snapshot keeps the old table.
	genBefore := after.Generation("a")
	oldTable, err := after.Catalog.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, gen, err := s.Register(datagen.Uniform("a", 400, 0.01, 3), true); err != nil {
		t.Fatal(err)
	} else if gen <= genBefore {
		t.Fatalf("generation did not advance: %d -> %d", genBefore, gen)
	}
	replaced := s.Snapshot()
	newTable, err := replaced.Catalog.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if newTable == oldTable || newTable.Len() != 400 {
		t.Fatal("replace did not install the new table")
	}
	if stale, err := after.Catalog.Table("a"); err != nil || stale != oldTable {
		t.Fatal("old snapshot lost its table")
	}

	// Duplicate without replace is rejected.
	if _, _, err := s.Register(datagen.Uniform("a", 100, 0.01, 4), false); err == nil {
		t.Fatal("duplicate register should fail")
	}

	// Drop.
	if ok, err := s.Drop("b"); err != nil || !ok {
		t.Fatalf("drop b: %v %v", ok, err)
	}
	if ok, _ := s.Drop("b"); ok {
		t.Fatal("double drop reported success")
	}
	if names := s.Snapshot().Catalog.Names(); len(names) != 1 {
		t.Fatalf("after drop: %v", names)
	}
}

// verifyPackedMirrors checks the invariant the packed-publication seam must
// hold for every snapshot: the packed image — base planes, tombstones and
// delta — and the pointer index a table carries describe exactly the same item
// set. The image arrives inside the same immutable *sdb.Table that Publish
// installs under the new generation, so an image from generation G can never
// surface under G+1's key — any divergence here means that seam broke.
func verifyPackedMirrors(tab *sdb.Table) (msg string, ok bool) {
	if tab.Packed == nil {
		return "published table has no packed image", false
	}
	if got, want := tab.Packed.Len(), tab.Index.Len(); got != want {
		return "packed image has " + strconv.Itoa(got) + " items, index " + strconv.Itoa(want), false
	}
	bad := ""
	n := 0
	seen := make(map[int]bool, tab.Packed.Len())
	tab.Packed.VisitItems(func(id int, r geom.Rect) {
		n++
		if bad == "" && (id < 0 || id >= len(tab.Data.Items) || tab.Data.Items[id] != r) {
			bad = "packed item " + strconv.Itoa(id) + " rect diverges from data"
		}
		if bad == "" && seen[id] {
			bad = "packed item " + strconv.Itoa(id) + " visited twice"
		}
		seen[id] = true
	})
	if bad != "" {
		return bad, false
	}
	if n != tab.Index.Len() {
		return "packed image visited " + strconv.Itoa(n) + " items, index holds " + strconv.Itoa(tab.Index.Len()), false
	}
	return "", true
}

// TestStoreTablesCarryPackedImage pins the invariant the executor relies on
// and sdb.Catalog.Attach enforces: both producers of catalogued tables hand
// over the packed image of the index they attach — Register by building it,
// the ingest path by laying its overlay over the registered table's planes,
// which Publish installs as they come.
func TestStoreTablesCarryPackedImage(t *testing.T) {
	const level = 4
	store, err := NewStore(level)
	if err != nil {
		t.Fatal(err)
	}
	registered, _, err := store.Register(datagen.Uniform("x", 300, 0.02, 7), false)
	if err != nil {
		t.Fatal(err)
	}
	if msg, ok := verifyPackedMirrors(registered); !ok {
		t.Fatalf("Register: %s", msg)
	}

	manager := ingest.NewManager(ingest.Options{
		Level:  level,
		Lookup: func(name string) (*sdb.Table, error) { return store.Snapshot().Catalog.Table(name) },
		Publish: func(snap *sdb.Table) (uint64, error) {
			if snap.Packed == nil {
				t.Error("ingest snapshot arrived without a packed image")
			}
			return store.Publish(snap)
		},
	})
	defer manager.Close()
	live, err := manager.Table("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(0.1, 0.1, 0.2, 0.2)}}); err != nil {
		t.Fatal(err)
	}
	published, err := store.Snapshot().Catalog.Table("x")
	if err != nil {
		t.Fatal(err)
	}
	if published == registered || published.Index.Len() != 301 {
		t.Fatalf("Publish did not install the ingest snapshot (%d items)", published.Index.Len())
	}
	if msg, ok := verifyPackedMirrors(published); !ok {
		t.Fatalf("Publish: %s", msg)
	}
	if di, ts := published.Packed.Overlay(); di != 1 || ts != 0 || !published.Packed.SharesPlanes(registered.Packed) {
		t.Fatalf("one insert published overlay (%d, %d) on planes of its own: the batch re-packed the table", di, ts)
	}
}

// heldSnapshot is what a reader keeps of a table snapshot to prove, later,
// that nobody wrote to it: the answers it gave when it was taken.
type heldSnapshot struct {
	tab   *sdb.Table
	gen   uint64
	folds int64
	joins int
	hits  []int
}

var heldProbe = geom.NewRect(0.1, 0.1, 0.6, 0.5)

func holdSnapshot(tab *sdb.Table, partner *rtree.Packed, gen uint64, folds int64) *heldSnapshot {
	return &heldSnapshot{tab: tab, gen: gen, folds: folds,
		joins: rtree.PackedJoinCount(tab.Packed, partner), hits: tab.Packed.Search(heldProbe, nil)}
}

// changed re-asks the held snapshot its questions and reports the first answer
// that differs — a later publish flipped a bit in, or a fold recycled the
// planes of, an image a reader still holds.
func (h *heldSnapshot) changed(partner *rtree.Packed) string {
	if got := rtree.PackedJoinCount(h.tab.Packed, partner); got != h.joins {
		return "join count " + strconv.Itoa(h.joins) + " -> " + strconv.Itoa(got)
	}
	got := h.tab.Packed.Search(heldProbe, nil)
	if len(got) != len(h.hits) {
		return "search hits " + strconv.Itoa(len(h.hits)) + " -> " + strconv.Itoa(len(got))
	}
	for i := range got {
		if got[i] != h.hits[i] {
			return "search hit " + strconv.Itoa(i) + " changed"
		}
	}
	return ""
}

// TestStorePublishRepackRace hammers the snapshot-publish seam the packed
// image crosses: concurrent Apply batches (inserts and deletes) race a fold
// loop on a live ingest table, every commit publishing into the store, while
// readers pin generation↔packed-image consistency on each snapshot they
// observe — and hold on to some, re-checking the answers those gave after
// later batches and at least one fold have been published: consecutive
// snapshots share base planes and a fold builds new ones, so a write through
// either would show up here. Run under -race.
func TestStorePublishRepackRace(t *testing.T) {
	const level = 4
	store, err := NewStore(level)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Register(datagen.Uniform("x", 300, 0.02, 7), false); err != nil {
		t.Fatal(err)
	}
	partnerTab, _, err := store.Register(datagen.Uniform("y", 200, 0.05, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	partner := partnerTab.Packed
	manager := ingest.NewManager(ingest.Options{
		Level:   level,
		Lookup:  func(name string) (*sdb.Table, error) { return store.Snapshot().Catalog.Table(name) },
		Publish: store.Publish,
		Repack:  ingest.RepackPolicy{MinChurn: 25, MaxChurnRatio: 0.05},
	})
	tab, err := manager.Table("x")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Bool
	var folds, rechecked atomic.Int64

	// Two mutators plus a dedicated fold loop: publications from Apply's
	// group commit and from Repack's swap interleave freely. Every third
	// batch also deletes one of the registered items (each writer its own),
	// so images carry tombstones as well as a delta.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := 0.05 * float64(w+1)
			for i := 0; i < 120; i++ {
				x := seed + float64(i%9)*0.05
				y := float64(i%7) * 0.07
				m := ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(x, y, x+0.03, y+0.03)}}
				if i%3 == 0 {
					m.Deletes = []int{w*150 + i/3}
				}
				if _, err := tab.Apply(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := tab.Repack(); err != nil {
				t.Error(err)
				return
			}
			folds.Add(1)
		}
	}()

	// Readers: every observed snapshot must carry a packed image that
	// mirrors its index, generations must never regress, and a snapshot held
	// across later batches and a fold must still give the answers it gave.
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(slot int) {
			defer readers.Done()
			var prevGen uint64
			var held *heldSnapshot
			recheck := func() {
				if msg := held.changed(partner); msg != "" {
					t.Errorf("reader %d: snapshot of generation %d changed after it was published: %s", slot, held.gen, msg)
					failed.Store(true)
				}
				rechecked.Add(1)
				held = nil
			}
			for {
				select {
				case <-stop:
					if held != nil {
						recheck()
					}
					return
				default:
				}
				snap := store.Snapshot()
				gen := snap.Generation("x")
				if gen < prevGen {
					t.Errorf("reader %d: generation regressed %d -> %d", slot, prevGen, gen)
					failed.Store(true)
					return
				}
				prevGen = gen
				tx, err := snap.Catalog.Table("x")
				if err != nil {
					t.Errorf("reader %d: %v", slot, err)
					failed.Store(true)
					return
				}
				if msg, ok := verifyPackedMirrors(tx); !ok {
					t.Errorf("reader %d at generation %d: %s", slot, gen, msg)
					failed.Store(true)
					return
				}
				switch {
				case held == nil:
					held = holdSnapshot(tx, partner, gen, folds.Load())
				case gen >= held.gen+4 && folds.Load() > held.folds:
					recheck()
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if failed.Load() {
		return
	}
	if rechecked.Load() < 8 {
		t.Fatalf("readers re-checked %d held snapshots; the hold never spanned a fold", rechecked.Load())
	}
	// The final snapshot reflects all 240 inserts and 80 deletes, packed and
	// indexed alike.
	current := func() *sdb.Table {
		t.Helper()
		tx, err := store.Snapshot().Catalog.Table("x")
		if err != nil {
			t.Fatal(err)
		}
		if msg, ok := verifyPackedMirrors(tx); !ok {
			t.Fatal(msg)
		}
		return tx
	}
	if tx := current(); tx.Index.Len() != 300+240-80 {
		t.Fatalf("final table has %d items, want %d", tx.Index.Len(), 300+240-80)
	}

	// What the readers raced for, in order: two batches publish over the same
	// base planes, a fold over new ones, and none of it writes to a snapshot
	// published before.
	batch := func(del int) *sdb.Table {
		t.Helper()
		if _, err := tab.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(0.3, 0.3, 0.4, 0.4)}, Deletes: []int{del}}); err != nil {
			t.Fatal(err)
		}
		return current()
	}
	first := batch(299)
	h1 := holdSnapshot(first, partner, 0, 0)
	second := batch(298)
	h2 := holdSnapshot(second, partner, 0, 0)
	if !first.Packed.SharesPlanes(second.Packed) {
		t.Fatal("consecutive snapshots between two folds do not share their base planes")
	}
	if _, err := tab.Repack(); err != nil {
		t.Fatal(err)
	}
	folded := current()
	if folded == second || folded.Packed.SharesPlanes(second.Packed) {
		t.Fatal("the first snapshot after a fold still serves the pre-fold planes")
	}
	if di, ts := folded.Packed.Overlay(); di != 0 || ts != 0 {
		t.Fatalf("the first snapshot after a quiet fold carries overlay (%d, %d)", di, ts)
	}
	batch(297)
	for i, h := range []*heldSnapshot{h1, h2} {
		if msg := h.changed(partner); msg != "" {
			t.Fatalf("pre-fold snapshot %d changed after later batches and a fold: %s", i+1, msg)
		}
	}
}

func TestStoreConcurrentRegisterAndRead(t *testing.T) {
	s, err := NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Register(datagen.Uniform("base", 500, 0.01, 1), false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, _, err := s.Register(datagen.Uniform("base", 500, 0.01, int64(i)), true)
				if err != nil {
					t.Error(err)
				}
				return
			}
			for j := 0; j < 20; j++ {
				snap := s.Snapshot()
				tab, err := snap.Catalog.Table("base")
				if err != nil {
					t.Error(err)
					return
				}
				if tab.Len() == 0 || tab.Index.Height() < 1 {
					t.Error("snapshot handed out a broken table")
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
