package rtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spatialsel/internal/geom"
)

// drainItems builds a deterministic item set.
func drainItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{Rect: geom.NewRect(x, y, x+0.02*rng.Float64(), y+0.02*rng.Float64()), ID: i}
	}
	return items
}

func pairKeySet(t *testing.T, a, b *Tree) map[[2]int]bool {
	t.Helper()
	set := make(map[[2]int]bool)
	JoinFunc(a, b, func(x, y int) { set[[2]int{x, y}] = true })
	return set
}

func requireSameJoin(t *testing.T, label string, got, want *Tree, probe *Tree) {
	t.Helper()
	g, w := pairKeySet(t, got, probe), pairKeySet(t, want, probe)
	if len(g) != len(w) {
		t.Fatalf("%s: join produced %d pairs, fresh tree %d", label, len(g), len(w))
	}
	for k := range w {
		if !g[k] {
			t.Fatalf("%s: join missing pair %v", label, k)
		}
	}
}

// tombstone returns a bitmap over p's slots with the slots of the given ids
// set.
func tombstone(p *Packed, ids map[int]bool) []uint64 {
	dead := make([]uint64, (p.Len()+63)/64)
	slot := 0
	p.VisitItems(func(id int, _ geom.Rect) {
		if ids[id] {
			dead[slot>>6] |= 1 << (uint(slot) & 63)
		}
		slot++
	})
	return dead
}

// TestDeleteDrainThenRefill: an image whose every slot is deleted — the last
// live item included — cuts to an empty tree, and refilling it through its
// delta cuts to a tree that searches and joins like the tree of a fresh pack of
// the same items.
func TestDeleteDrainThenRefill(t *testing.T) {
	for _, n := range []int{1, 2, 7, 60, 400} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			items := drainItems(n, int64(n))
			base := PackItems(items)
			all := make(map[int]bool, n)
			for _, it := range items {
				all[it.ID] = true
			}
			drained := TreeOf(base.WithOverlay(tombstone(base, all), nil))
			if err := drained.checkInvariants(); err != nil {
				t.Fatalf("drained: %v", err)
			}
			if drained.Len() != 0 || drained.Height() != 0 {
				t.Fatalf("drained tree: len=%d height=%d, want 0/0", drained.Len(), drained.Height())
			}
			if got := drained.Search(geom.UnitSquare, nil); len(got) != 0 {
				t.Fatalf("drained tree still finds %d items", len(got))
			}

			refilled := TreeOf(base.WithOverlay(tombstone(base, all), PackItems(items)))
			fresh := TreeOf(PackItems(items))
			if err := refilled.checkInvariants(); err != nil {
				t.Fatalf("after refill: %v", err)
			}
			if refilled.Len() != fresh.Len() || refilled.Height() != fresh.Height() {
				t.Fatalf("refilled len=%d height=%d, fresh len=%d height=%d",
					refilled.Len(), refilled.Height(), fresh.Len(), fresh.Height())
			}
			got := refilled.Search(geom.UnitSquare, nil)
			want := fresh.Search(geom.UnitSquare, nil)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) || len(got) != n {
				t.Fatalf("refilled search returns %d items, fresh %d, want %d", len(got), len(want), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("refilled search differs at %d: %d vs %d", i, got[i], want[i])
				}
			}

			probe, err := BulkLoadSTR(drainItems(n, int64(n)+99), WithFanout(5))
			if err != nil {
				t.Fatal(err)
			}
			requireSameJoin(t, "refilled", refilled, fresh, probe)
		})
	}
}

// TestInsertDeleteChurn interleaves inserts and deletes — the live-ingest
// write pattern — on a packed base the way the ingest front does (tombstones
// over the base's slots, inserts into a delta, a delta item deleted out of the
// delta) and holds the tree cut from every image to the live set: Len, the
// structural invariants and a full-window search.
func TestInsertDeleteChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := drainItems(500, 5)
	base := PackItems(items)
	live := make(map[int]geom.Rect, len(items))
	for _, it := range items {
		live[it.ID] = it.Rect
	}
	deleted := map[int]bool{}
	var delta []Item
	for step := 0; step < 600; step++ {
		if rng.Float64() < 0.55 {
			x, y := rng.Float64(), rng.Float64()
			it := Item{Rect: geom.NewRect(x, y, x+0.03*rng.Float64(), y+0.03*rng.Float64()), ID: 500 + step}
			delta = append(delta, it)
			live[it.ID] = it.Rect
		} else if k := rng.Intn(len(items) + len(delta)); k < len(items) {
			if id := items[k].ID; !deleted[id] {
				deleted[id] = true
				delete(live, id)
			}
		} else {
			k -= len(items)
			delete(live, delta[k].ID)
			delta = append(delta[:k], delta[k+1:]...)
		}
		tr := TreeOf(base.WithOverlay(tombstone(base, deleted), PackItems(delta)))
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := tr.Search(geom.NewRect(-1, -1, 2, 2), nil)
		if tr.Len() != len(live) || len(got) != len(live) {
			t.Fatalf("step %d: len=%d search=%d live=%d", step, tr.Len(), len(got), len(live))
		}
		for _, id := range got {
			if _, ok := live[id]; !ok {
				t.Fatalf("step %d: tree holds item %d, which is not live", step, id)
			}
		}
	}
}

// TestDeleteLastRootLeafEntry: an image of one item, deleted, cuts to an empty
// tree; the same base with a new item in its delta cuts to a one-leaf tree
// that finds and joins it.
func TestDeleteLastRootLeafEntry(t *testing.T) {
	r := geom.NewRect(0.2, 0.2, 0.4, 0.4)
	base := PackItems([]Item{{Rect: r, ID: 42}})
	gone := base.WithOverlay(tombstone(base, map[int]bool{42: true}), nil)
	tr := TreeOf(gone)
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("after drain: len=%d height=%d", tr.Len(), tr.Height())
	}

	tr = TreeOf(base.WithOverlay(tombstone(base, map[int]bool{42: true}), PackItems([]Item{{Rect: r, ID: 7}})))
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Fatalf("after refill: len=%d height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Search(geom.UnitSquare, nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("after refill search = %v, want [7]", got)
	}
	other, _ := BulkLoadSTR([]Item{{Rect: r, ID: 1}})
	if n := JoinCount(tr, other); n != 1 {
		t.Fatalf("join after refill = %d pairs, want 1", n)
	}
}
