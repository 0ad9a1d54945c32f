package ingest

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"spatialsel/internal/geom"
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
// closes their front publish nothing once Forget has returned, whichever
// critical section the close lands next to; the writer's batches after the
// close fail with ErrClosed.
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
