package rtree

import (
	"fmt"
	"slices"
	"sync"
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

// cutOf is TreeOf over the packed image of items, with BulkLoadSTR's
// signature so the tests can run both builds; TreeOf takes no options.
func cutOf(items []Item, _ ...Option) (*Tree, error) {
	return TreeOf(PackItems(items)), nil
}

func testBulkLoader(t *testing.T, name string, load func([]Item, ...Option) (*Tree, error)) {
	t.Run(name, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 5, 49, 50, 51, 1000, 2500} {
			rects := randRects(n, int64(n)+30)
			tr, err := load(ItemsFromRects(rects), WithFanout(8))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if tr.Len() != n {
				t.Fatalf("n=%d: Len = %d", n, tr.Len())
			}
			if err := tr.checkInvariants(); err != nil {
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

// checkInvariants validates a built tree's structure: every entry's MBR is
// exactly its child's, leaves share a depth equal to the height, the items
// number Len, and every node holds at most the fanout's entries and — but the
// root — at least 2: packing leaves one underfull node per level at most, the
// remainder chunk, and never a single entry. A TreeOf tree is cut first.
func (t *Tree) checkInvariants() error {
	if t.nodes() == nil {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("empty tree with size=%d height=%d", t.size, t.height)
		}
		return nil
	}
	leafDepth, count := -1, 0
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if len(n.entries) == 0 || len(n.entries) > t.maxEntries || n != t.root && len(n.entries) < 2 {
			return fmt.Errorf("fill violation at depth %d: %d entries", depth, len(n.entries))
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			if e.rect != e.child.mbr() {
				return fmt.Errorf("entry MBR %v is not its child's MBR %v", e.rect, e.child.mbr())
			}
			if err := walk(e.child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("leaf count %d != size %d", count, t.size)
	}
	if leafDepth != t.height {
		return fmt.Errorf("leaf depth %d != height %d", leafDepth, t.height)
	}
	return nil
}

func TestBulkLoaders(t *testing.T) {
	testBulkLoader(t, "STR", BulkLoadSTR)
	testBulkLoader(t, "TreeOf", cutOf)
}

func TestBulkLoadInvalidOptions(t *testing.T) {
	items := ItemsFromRects(randRects(10, 40))
	if _, err := BulkLoadSTR(items, WithFanout(0)); err == nil {
		t.Error("STR accepted bad fanout")
	}
}

// TestBulkLoadFillFactor: both packers fill their nodes — every node but the
// last of a level is full.
func TestBulkLoadFillFactor(t *testing.T) {
	items := ItemsFromRects(randRects(5000, 41))
	str, _ := BulkLoadSTR(items)
	cut, _ := cutOf(items)
	for name, tr := range map[string]*Tree{"STR": str, "TreeOf": cut} {
		if s := tr.ComputeStats(); s.AvgFill < 0.9 {
			t.Errorf("%s fill = %.2f, want ≥0.9", name, s.AvgFill)
		}
	}
}

func TestBulkLoadDegenerateAllSamePoint(t *testing.T) {
	// All items identical (zero-area universe): STR's center sorts and the
	// image's curve, which gets slack, must still build a searchable tree.
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Rect: geom.NewRect(0.5, 0.5, 0.5, 0.5), ID: i}
	}
	for name, load := range map[string]func([]Item, ...Option) (*Tree, error){
		"STR": BulkLoadSTR, "TreeOf": cutOf,
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

// TestTreeOfCutsSlotOrder pins TreeOf's shape: its leaves, left to right, hold
// the image's live items in VisitItems order — planes by slot, tombstones
// skipped, then the delta — DefaultMaxEntries to a leaf.
func TestTreeOfCutsSlotOrder(t *testing.T) {
	rects := randRects(2600, 43)
	base := PackItems(ItemsFromRects(rects[:2000]))
	dead := make([]uint64, (2000+63)/64)
	for s := 0; s < 2000; s += 7 {
		dead[s>>6] |= 1 << (uint(s) & 63)
	}
	delta := make([]Item, 0, 600)
	for id := 2000; id < 2600; id++ {
		delta = append(delta, Item{Rect: rects[id], ID: id})
	}
	img := base.WithOverlay(dead, PackItems(delta))
	var want []entry
	img.VisitItems(func(id int, r geom.Rect) { want = append(want, entry{rect: r, id: id}) })
	tr := TreeOf(img)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []entry
	var sizes []int
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			got = append(got, n.entries...)
			sizes = append(sizes, len(n.entries))
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(tr.nodes())
	for i, n := range sizes[:len(sizes)-2] {
		if n != DefaultMaxEntries {
			t.Fatalf("leaf %d of %d holds %d items", i, len(sizes), n)
		}
	}
	if len(got) != len(want) || tr.Len() != img.Len() {
		t.Fatalf("tree holds %d items (Len %d), the image %d", len(got), tr.Len(), img.Len())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leaf item %d = %+v, image item %+v", i, got[i], want[i])
		}
	}
}

// TestTreeOfConcurrentFirstReads: a TreeOf tree is cut on its first read, once,
// however many goroutines make that read at the same moment (run it under
// -race). Each goroutine starts on a different method, and every answer must
// equal an eagerly cut tree's over the same image: the same Search ids in the
// same order, the same level statistics, root, height and shape, and the same
// join pairs in the same order with the tree on either side. Holding the tree
// and Len cut nothing; the reads together cut each tree's items exactly once.
func TestTreeOfConcurrentFirstReads(t *testing.T) {
	rects := randRects(3000, 91)
	base := PackItems(ItemsFromRects(rects[:2400]))
	deleted := map[int]bool{}
	for id := 0; id < 2400; id += 5 {
		deleted[id] = true
	}
	img := base.WithOverlay(tombstone(base, deleted), PackItems(ItemsFromRects(rects)[2400:]))
	other := PackItems(ItemsFromRects(randRects(1500, 92)))
	eager, eagerOther := TreeOf(img), TreeOf(other)
	eager.nodes()
	eagerOther.nodes()
	queries := randRects(16, 93)
	wantSearch := make([][]int, len(queries))
	for i, q := range queries {
		wantSearch[i] = eager.Search(q, nil)
	}
	wantPairs, wantSwapped := Join(eager, eagerOther), Join(eagerOther, eager)
	wantLevels, wantStats := eager.LevelStats(), eager.ComputeStats()
	wantRoot, _ := eager.RootMBR()

	before := mTreeCutItems.Value()
	lazy, lazyOther := TreeOf(img), TreeOf(other)
	if lazy.Len() != img.Len() || lazyOther.Len() != other.Len() {
		t.Fatalf("Len = %d/%d, want the images' %d/%d", lazy.Len(), lazyOther.Len(), img.Len(), other.Len())
	}
	if got := mTreeCutItems.Value() - before; got != 0 {
		t.Fatalf("TreeOf and Len cut %d items, want none", got)
	}
	reads := []func() error{
		func() error {
			for i, q := range queries {
				if got := lazy.Search(q, nil); !slices.Equal(got, wantSearch[i]) {
					return fmt.Errorf("Search %v = %d ids, eager %d", q, len(got), len(wantSearch[i]))
				}
			}
			return nil
		},
		func() error {
			if got := lazy.LevelStats(); !slices.Equal(got, wantLevels) {
				return fmt.Errorf("LevelStats = %+v, eager %+v", got, wantLevels)
			}
			return nil
		},
		func() error {
			if got, ok := lazy.RootMBR(); !ok || got != wantRoot {
				return fmt.Errorf("RootMBR = %v %v, eager %v", got, ok, wantRoot)
			}
			return nil
		},
		func() error {
			if got := lazy.Height(); got != eager.Height() {
				return fmt.Errorf("Height = %d, eager %d", got, eager.Height())
			}
			return nil
		},
		func() error {
			if got := lazy.ComputeStats(); got != wantStats {
				return fmt.Errorf("ComputeStats = %+v, eager %+v", got, wantStats)
			}
			return nil
		},
		func() error {
			if got := Join(lazy, lazyOther); !slices.Equal(got, wantPairs) {
				return fmt.Errorf("join = %d pairs, eager %d", len(got), len(wantPairs))
			}
			return nil
		},
		func() error {
			if got := Join(lazyOther, lazy); !slices.Equal(got, wantSwapped) {
				return fmt.Errorf("swapped join = %d pairs, eager %d", len(got), len(wantSwapped))
			}
			return nil
		},
	}
	const goroutines = 16
	errs := make(chan error, goroutines*len(reads))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range reads {
				if err := reads[(g+k)%len(reads)](); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := mTreeCutItems.Value()-before, uint64(img.Len()+other.Len()); got != want {
		t.Fatalf("the reads cut %d items, want each tree's once: %d", got, want)
	}
}
