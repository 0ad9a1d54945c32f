package ingest

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/sdb"
)

// TestLifecycleClosedFrontPublishesNothing: once Forget returns, the front it
// closed answers every call with ErrClosed and nothing reaches the store, with
// or without a WAL. A caller may still hold the *Table (a RepackPass does,
// across the fold), so these are the calls a stale holder can make.
func TestLifecycleClosedFrontPublishesNothing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "lc_mem", true: "lc_wal"}[durable]
		t.Run(name, func(t *testing.T) {
			const level = 4
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			fx := newManagerFixture(t, dir, level, RepackPolicy{})
			fx.lookup[name] = buildTable(t, name, 200, level, 61)
			tab, err := fx.m.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(62))
			if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}, Deletes: []int{0}}); err != nil {
				t.Fatal(err)
			}

			err = fx.m.Forget(name, func() bool {
				// The store edit runs while the name's latch is claimed, so no
				// new front can open on the table being dropped.
				fx.m.mu.Lock()
				claimed := fx.m.opening[name] != nil
				fx.m.mu.Unlock()
				if !claimed {
					t.Error("Forget ran the store change without claiming the opening latch")
				}
				delete(fx.lookup, name)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			_, pubs := fx.store.current()

			if _, err := tab.Repack(); !errors.Is(err, ErrClosed) {
				t.Errorf("Repack on a closed front: %v, want ErrClosed", err)
			}
			if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}}); !errors.Is(err, ErrClosed) {
				t.Errorf("Apply on a closed front: %v, want ErrClosed", err)
			}
			if _, err := tab.Snapshot(); !errors.Is(err, ErrClosed) {
				t.Errorf("Snapshot on a closed front: %v, want ErrClosed", err)
			}
			if _, after := fx.store.current(); after != pubs {
				t.Errorf("a closed front published %d more snapshots", after-pubs)
			}
			if d, ts := tab.gDeltaItems.Value(), tab.gTombstones.Value(); d != 0 || ts != 0 {
				t.Errorf("a closed front's overlay gauges read (%d, %d), want (0, 0)", d, ts)
			}
		})
	}
}

// TestLifecycleForgetDuringFold: a fold and a writer in flight when Forget
// closes their front publish nothing once Forget has returned. The fold and
// each batch are critical sections under the apply lock, and the writer waits
// out the fold, so Close lands before, between or after them; whatever ran
// after it fails with ErrClosed, the writer's next batch included.
func TestLifecycleForgetDuringFold(t *testing.T) {
	const level = 4
	for i := 0; i < 8; i++ {
		dir := ""
		if i%2 == 1 {
			dir = t.TempDir()
		}
		fx := newManagerFixture(t, dir, level, RepackPolicy{})
		fx.lookup["lc_fold"] = buildTable(t, "lc_fold", 3000, level, int64(70+i))
		tab, err := fx.m.Table("lc_fold")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(80 + i)))
		for b := 0; b < 20; b++ {
			if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng), rawRect(rng)}}); err != nil {
				t.Fatal(err)
			}
		}
		folded, written := make(chan error, 1), make(chan error, 1)
		go func() {
			_, err := tab.Repack()
			folded <- err
		}()
		go func() {
			rng := rand.New(rand.NewSource(int64(90 + i)))
			for {
				if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}}); err != nil {
					written <- err
					return
				}
			}
		}()
		time.Sleep(time.Duration(i) * 500 * time.Microsecond)
		if err := fx.m.Forget("lc_fold", storeChanged); err != nil {
			t.Fatal(err)
		}
		_, pubs := fx.store.current()
		if err := <-folded; err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: fold failed: %v", i, err)
		}
		if err := <-written; !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: the writer stopped on %v, want ErrClosed", i, err)
		}
		if _, after := fx.store.current(); after != pubs {
			t.Fatalf("round %d: %d publications after Forget returned", i, after-pubs)
		}
	}
}

// requireIndexCutFromImage holds a published table's pointer tree to its
// packed image: the same number of items, and a search over a window holding
// the whole unit square returns exactly the image's live ids, each once.
func requireIndexCutFromImage(t *testing.T, step string, tab *sdb.Table) {
	t.Helper()
	var want []int
	tab.Packed.VisitItems(func(id int, _ geom.Rect) { want = append(want, id) })
	got := tab.Index.Search(geom.NewRect(-1, -1, 2, 2), nil)
	slices.Sort(want)
	slices.Sort(got)
	if tab.Index.Len() != tab.Packed.Len() || !slices.Equal(got, want) {
		t.Fatalf("%s: index holds %d items (search %d), the image %d live", step, tab.Index.Len(), len(got), len(want))
	}
}

// TestLifecycleIndexIsCutFromImage: the pointer tree every table carries
// (sdb.Table.Index) is cut from that table's own image and never kept beside
// it, so after registration, inserts, deletes — of base and of delta items —
// a fold, a degraded-mode recovery and a restart, the published Index holds
// exactly the published Packed's live items.
func TestLifecycleIndexIsCutFromImage(t *testing.T) {
	requireIndexCutFromImage(t, "registration", buildTable(t, "ft", 300, 6, 11))
	tbl, inj, store, walPath := faultTable(t)
	defer tbl.Close()
	requireIndexCutFromImage(t, "open", store.snapshot())

	rng := rand.New(rand.NewSource(63))
	res, err := tbl.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng), rawRect(rng), rawRect(rng)}})
	if err != nil {
		t.Fatal(err)
	}
	requireIndexCutFromImage(t, "inserts", store.snapshot())
	if _, err := tbl.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}, Deletes: []int{0, 7, res.IDs[1]}}); err != nil {
		t.Fatal(err)
	}
	snap := store.snapshot()
	if d, ts := snap.Packed.Overlay(); d != 3 || ts != 2 {
		t.Fatalf("overlay holds %d delta items and %d tombstones, want 3 and 2", d, ts)
	}
	requireIndexCutFromImage(t, "deletes", snap)

	if folded, err := tbl.Repack(); !folded || err != nil {
		t.Fatalf("fold: %v, %v", folded, err)
	}
	requireIndexCutFromImage(t, "fold", store.snapshot())
	if _, err := tbl.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}, Deletes: []int{3}}); err != nil {
		t.Fatal(err)
	}
	requireIndexCutFromImage(t, "write after the fold", store.snapshot())

	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	var derr *DegradedError
	if _, err := tbl.Apply(Mutation{Deletes: []int{4}}); !errors.As(err, &derr) {
		t.Fatalf("apply under fault = %v, want DegradedError", err)
	}
	inj.Clear()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := tbl.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}, Deletes: []int{5}})
		if err == nil {
			break
		}
		if !errors.As(err, &derr) || time.Now().After(deadline) {
			t.Fatalf("recovery apply = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	snap = store.snapshot()
	requireIndexCutFromImage(t, "degraded-mode recovery", snap)
	live := snap.Packed.Len()
	if live != 300+3+1-3+1-1+1-1 {
		t.Fatalf("recovered image holds %d items", live)
	}

	tbl.Close()
	rec, err := RecoverTableOpts("ft", 6, TableOptions{WALPath: walPath}, store.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if snap = store.snapshot(); snap.Packed.Len() != live {
		t.Fatalf("restart holds %d items, before it %d", snap.Packed.Len(), live)
	}
	requireIndexCutFromImage(t, "restart", snap)
}

// pubLog is a store that keeps every publication: generation g is pubs[g-1].
type pubLog struct {
	mu   sync.Mutex
	pubs []*sdb.Table
}

func (l *pubLog) publish(t *sdb.Table) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pubs = append(l.pubs, t)
	return uint64(len(l.pubs)), nil
}

// TestLifecycleConcurrentCommits pins the commit contract: a commit is one
// critical section, so with several writers on one WAL-backed table every
// batch pays its own fsync and makes its own publication, publications arrive
// in sequence order, and each batch's Gen is the publication that carries it.
// Every batch inserts one item, so publication k of batch seq k holds
// base+k items, the last of which is the batch's.
func TestLifecycleConcurrentCommits(t *testing.T) {
	const (
		writers = 6
		batches = 20
		n0      = 200
	)
	store := &pubLog{}
	tab, err := OpenTable(buildTable(t, "lc_commit", n0, 4, 64), 4, filepath.Join(t.TempDir(), "lc_commit.wal"), store.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	var fsyncs atomic.Int64
	tab.SetFsyncObserver(func(time.Duration) { fsyncs.Add(1) })

	results := make([][]ApplyResult, writers)
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for b := 0; b < batches; b++ {
				res, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}})
				if err != nil {
					errs <- err
					return
				}
				results[w] = append(results[w], res)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = writers * batches
	if len(store.pubs) != total {
		t.Fatalf("%d publications for %d batches", len(store.pubs), total)
	}
	for k, pub := range store.pubs {
		if got, want := pub.Data.Len(), n0+k+1; got != want || pub.Packed.Len() != want {
			t.Fatalf("publication %d holds %d items (%d live), want %d: not batch seq %d", k+1, got, pub.Packed.Len(), want, k+1)
		}
	}
	for w, rs := range results {
		for i, res := range rs {
			if i > 0 && res.Seq <= rs[i-1].Seq {
				t.Fatalf("writer %d: seq %d after %d", w, res.Seq, rs[i-1].Seq)
			}
			if res.Gen != res.Seq || res.IDs[0] != n0+int(res.Seq)-1 {
				t.Fatalf("writer %d: batch seq %d (item %d) reported gen %d, want its own publication %d", w, res.Seq, res.IDs[0], res.Gen, res.Seq)
			}
		}
	}
	if got := fsyncs.Load(); got != total {
		t.Fatalf("%d fsyncs for %d batches, want one each", got, total)
	}
}

// TestLifecycleCloseDuringDegradedProbe: a degraded table closed while its
// breaker would grant a probe stays closed — the batch that would have been
// the probe answers ErrClosed and reopens, commits and publishes nothing.
func TestLifecycleCloseDuringDegradedProbe(t *testing.T) {
	tbl, inj, store, _ := faultTable(t)
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	var derr *DegradedError
	if _, err := tbl.Apply(oneInsert()); !errors.As(err, &derr) {
		t.Fatalf("apply under fault = %v, want DegradedError", err)
	}
	inj.Clear()
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	_, pubs := store.current()
	time.Sleep(10 * time.Millisecond) // past the breaker's cooldown
	if _, err := tbl.Apply(oneInsert()); !errors.Is(err, ErrClosed) {
		t.Fatalf("probe after Close = %v, want ErrClosed", err)
	}
	if _, after := store.current(); after != pubs {
		t.Fatalf("the probe published %d snapshots after Close returned", after-pubs)
	}
}
