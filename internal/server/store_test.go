package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
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
// hold for every snapshot: the packed image and the pointer index a table
// carries describe exactly the same item set. Publish builds the image from
// the same immutable *sdb.Table it installs under the new generation, so a
// packed image built from generation G can never surface under G+1's key —
// any divergence here means that seam broke.
func verifyPackedMirrors(tab *sdb.Table) (msg string, ok bool) {
	if tab.Packed == nil {
		return "published table has no packed image", false
	}
	if got, want := tab.Packed.Len(), tab.Index.Len(); got != want {
		return "packed image has " + strconv.Itoa(got) + " items, index " + strconv.Itoa(want), false
	}
	if rootM, okM := tab.Index.RootMBR(); okM && tab.Packed.RootMBR() != rootM {
		return "packed root MBR diverges from index", false
	}
	bad := ""
	n := 0
	tab.Packed.VisitItems(func(id int, r geom.Rect) {
		n++
		if bad == "" && (id < 0 || id >= len(tab.Data.Items) || tab.Data.Items[id] != r) {
			bad = "packed item " + strconv.Itoa(id) + " rect diverges from data"
		}
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
// Publish by packing the ingest path's snapshot, which arrives without one.
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
			if snap.Packed != nil {
				t.Error("ingest snapshot arrived already packed: Publish's packing is not exercised")
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
}

// TestStorePublishRepackRace hammers the snapshot-publish seam the packed
// builder sits on: concurrent Apply batches race a Repack loop on a live
// ingest table, every commit publishing into the store, while readers pin
// generation↔packed-image consistency on each snapshot they observe. Run
// under -race.
func TestStorePublishRepackRace(t *testing.T) {
	const level = 4
	store, err := NewStore(level)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Register(datagen.Uniform("x", 300, 0.02, 7), false); err != nil {
		t.Fatal(err)
	}
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

	// Two mutators plus a dedicated re-pack loop: publications from Apply's
	// group commit and from Repack's swap interleave freely.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				x := seed + float64(i%9)*0.05
				y := float64(i%7) * 0.07
				if _, err := tab.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(x, y, x+0.03, y+0.03)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(0.05 * float64(w+1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := tab.Repack(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: every observed snapshot must carry a packed image that
	// mirrors its index, and generations must never regress.
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(slot int) {
			defer readers.Done()
			var prevGen uint64
			for {
				select {
				case <-stop:
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
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if failed.Load() {
		return
	}
	// The final snapshot reflects all 240 inserts, packed and indexed alike.
	tx, err := store.Snapshot().Catalog.Table("x")
	if err != nil {
		t.Fatal(err)
	}
	if msg, ok := verifyPackedMirrors(tx); !ok {
		t.Fatal(msg)
	}
	if tx.Index.Len() != 300+240 {
		t.Fatalf("final table has %d items, want %d", tx.Index.Len(), 300+240)
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
