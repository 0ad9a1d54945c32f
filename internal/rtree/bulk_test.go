package rtree

import (
	"testing"

	"spatialsel/internal/geom"
)

func TestItemsFromRects(t *testing.T) {
	rects := randRects(10, 20)
	items := ItemsFromRects(rects)
	for i, it := range items {
		if it.ID != i || it.Rect != rects[i] {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
}

func testBulkLoader(t *testing.T, name string, load func([]Item, ...Option) (*Tree, error)) {
	t.Run(name, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 5, 49, 50, 51, 1000, 2500} {
			rects := randRects(n, int64(n)+30)
			tr, err := load(ItemsFromRects(rects), WithFanout(2, 8))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if tr.Len() != n {
				t.Fatalf("n=%d: Len = %d", n, tr.Len())
			}
			if err := tr.checkInvariantsPacked(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for _, q := range randRects(10, int64(n)+31) {
				if !sortedEqual(tr.Search(q, nil), bruteSearch(rects, q)) {
					t.Fatalf("n=%d: Search mismatch for %v", n, q)
				}
			}
		}
	})
}

// checkInvariantsPacked relaxes the minimum-fill invariant: packed trees may
// have one underfull node per level (the remainder chunk), which is standard
// for bulk loading.
func (t *Tree) checkInvariantsPacked() error {
	if t.root == nil {
		return nil
	}
	saveMin := t.minEntries
	t.minEntries = 2
	err := t.checkInvariants()
	t.minEntries = saveMin
	return err
}

func TestBulkLoaders(t *testing.T) {
	testBulkLoader(t, "STR", BulkLoadSTR)
	testBulkLoader(t, "Insert", BulkLoadInsert)
}

func TestBulkLoadInvalidOptions(t *testing.T) {
	items := ItemsFromRects(randRects(10, 40))
	if _, err := BulkLoadSTR(items, WithFanout(0, 0)); err == nil {
		t.Error("STR accepted bad fanout")
	}
	if _, err := BulkLoadInsert(items, WithFanout(0, 0)); err == nil {
		t.Error("Insert accepted bad fanout")
	}
}

func TestBulkLoadFillFactor(t *testing.T) {
	// STR packing should produce nearly full leaves — substantially fuller
	// than insertion builds.
	items := ItemsFromRects(randRects(5000, 41))
	str, _ := BulkLoadSTR(items)
	ins, _ := BulkLoadInsert(items)
	sStr, sIns := str.ComputeStats(), ins.ComputeStats()
	if sStr.AvgFill < 0.9 {
		t.Errorf("STR fill = %.2f, want ≥0.9", sStr.AvgFill)
	}
	if sStr.AvgFill <= sIns.AvgFill {
		t.Errorf("STR fill %.2f not better than insert fill %.2f", sStr.AvgFill, sIns.AvgFill)
	}
}

func TestBulkLoadDegenerateAllSamePoint(t *testing.T) {
	// All items identical (zero-area universe): STR's center sorts and the
	// quadratic split's area ties must still build a searchable tree.
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Rect: geom.NewRect(0.5, 0.5, 0.5, 0.5), ID: i}
	}
	for name, load := range map[string]func([]Item, ...Option) (*Tree, error){
		"STR": BulkLoadSTR, "Insert": BulkLoadInsert,
	} {
		tr, err := load(items)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(tr.Search(geom.NewRect(0.5, 0.5, 0.5, 0.5), nil)); got != 100 {
			t.Fatalf("%s: Search found %d, want 100", name, got)
		}
	}
}

func TestPackedTreeSupportsMutation(t *testing.T) {
	// A bulk-loaded tree must accept subsequent inserts and deletes.
	rects := randRects(500, 42)
	tr, err := BulkLoadSTR(ItemsFromRects(rects), WithFanout(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	extra := geom.NewRect(0.45, 0.45, 0.55, 0.55)
	tr.Insert(extra, 9999)
	if tr.Len() != 501 {
		t.Fatalf("Len after insert = %d", tr.Len())
	}
	found := false
	for _, id := range tr.Search(extra, nil) {
		if id == 9999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted item not found")
	}
	if !tr.Delete(extra, 9999) {
		t.Fatal("delete of inserted item failed")
	}
	if err := tr.checkInvariantsPacked(); err != nil {
		t.Fatal(err)
	}
}
