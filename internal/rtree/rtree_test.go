package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialsel/internal/geom"
)

func randRects(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.05, rng.Float64()*0.05
		out[i] = geom.NewRect(x, y, x+w, y+h)
	}
	return out
}

// clusteredRects is randRects skewed toward the origin (x ↦ x², y ↦ y²) with
// its sides shrunk to 30 %.
func clusteredRects(n int, seed int64) []geom.Rect {
	rs := randRects(n, seed)
	for i, r := range rs {
		rs[i] = geom.NewRect(r.MinX*r.MinX, r.MinY*r.MinY,
			r.MinX*r.MinX+r.Width()*0.3, r.MinY*r.MinY+r.Height()*0.3)
	}
	return rs
}

// bruteSearch is the reference implementation for range queries.
func bruteSearch(rects []geom.Rect, q geom.Rect) []int {
	var out []int
	for i, r := range rects {
		if r.Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNewOptions: a new tree's one option, the node capacity, is refused
// below 4 and applied otherwise.
func TestNewOptions(t *testing.T) {
	items := ItemsFromRects(randRects(10, 40))
	for _, max := range []int{3, 1, -8} {
		if _, err := BulkLoadSTR(items, WithFanout(max)); err == nil {
			t.Errorf("fanout %d accepted", max)
		}
	}
	tr, err := BulkLoadSTR(items, WithFanout(4))
	if err != nil {
		t.Fatalf("valid fanout rejected: %v", err)
	}
	if tr.maxEntries != 4 || tr.Height() != 2 {
		t.Fatalf("fanout not applied: capacity %d, height %d", tr.maxEntries, tr.Height())
	}
	if tr, _ := BulkLoadSTR(items); tr.maxEntries != DefaultMaxEntries {
		t.Fatalf("default capacity %d, want %d", tr.maxEntries, DefaultMaxEntries)
	}
}

func TestEmptyTree(t *testing.T) {
	str, err := BulkLoadSTR(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"STR": str, "TreeOf": TreeOf(PackItems(nil))} {
		if tr.Len() != 0 || tr.Height() != 0 {
			t.Fatalf("%s: empty tree Len/Height = %d/%d", name, tr.Len(), tr.Height())
		}
		if got := tr.Search(geom.UnitSquare, nil); got != nil {
			t.Fatalf("%s: Search on empty tree = %v", name, got)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestInsertSearchDefaultFanout: items inserted after the pack — the image's
// delta — are found, beside the planes', by the tree TreeOf cuts at the
// default fanout.
func TestInsertSearchDefaultFanout(t *testing.T) {
	rects := randRects(3000, 3)
	base := PackItems(ItemsFromRects(rects[:2000]))
	var inserted []Item
	for id := 2000; id < len(rects); id++ {
		inserted = append(inserted, Item{Rect: rects[id], ID: id})
	}
	tr := TreeOf(base.WithOverlay(nil, PackItems(inserted)))
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 || tr.Height() != 3 {
		t.Fatalf("Len/Height = %d/%d, want 3000/3", tr.Len(), tr.Height())
	}
	for _, q := range randRects(30, 4) {
		if !sortedEqual(tr.Search(q, nil), bruteSearch(rects, q)) {
			t.Fatalf("Search mismatch for %v", q)
		}
	}
}

func TestSearchAppendsToOut(t *testing.T) {
	tr, _ := BulkLoadSTR([]Item{{Rect: geom.NewRect(0, 0, 1, 1), ID: 7}})
	out := []int{99}
	out = tr.Search(geom.UnitSquare, out)
	if len(out) != 2 || out[0] != 99 || out[1] != 7 {
		t.Fatalf("Search append = %v", out)
	}
}

func TestDuplicateRects(t *testing.T) {
	r := geom.NewRect(0.5, 0.5, 0.6, 0.6)
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Rect: r, ID: i}
	}
	for name, load := range map[string]func([]Item, ...Option) (*Tree, error){"STR": BulkLoadSTR, "TreeOf": cutOf} {
		tr, _ := load(items, WithFanout(4))
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tr.Search(r, nil); len(got) != 100 {
			t.Fatalf("%s: Search over duplicates = %d, want 100", name, len(got))
		}
	}
}

func TestAccessesCounter(t *testing.T) {
	tr, _ := BulkLoadSTR(ItemsFromRects(randRects(200, 7)), WithFanout(4))
	tr.ResetAccesses()
	if tr.Accesses() != 0 {
		t.Fatal("ResetAccesses did not zero")
	}
	tr.Search(geom.NewRect(0.4, 0.4, 0.6, 0.6), nil)
	if tr.Accesses() == 0 {
		t.Fatal("Search did not count accesses")
	}
}

func TestComputeStats(t *testing.T) {
	rects := randRects(500, 8)
	tr, _ := BulkLoadSTR(ItemsFromRects(rects), WithFanout(4))
	s := tr.ComputeStats()
	if s.Items != 500 {
		t.Errorf("Items = %d", s.Items)
	}
	if s.Height != tr.Height() || s.Height < 3 {
		t.Errorf("Height = %d (tree %d)", s.Height, tr.Height())
	}
	if s.Nodes <= s.LeafNodes || s.LeafNodes == 0 {
		t.Errorf("Nodes/LeafNodes = %d/%d", s.Nodes, s.LeafNodes)
	}
	if s.Bytes <= 0 {
		t.Errorf("Bytes = %d", s.Bytes)
	}
	if s.AvgFill <= 0 || s.AvgFill > 1 {
		t.Errorf("AvgFill = %g", s.AvgFill)
	}
	var want geom.Rect = rects[0]
	for _, r := range rects[1:] {
		want = want.Union(r)
	}
	if s.RootMBR != want {
		t.Errorf("RootMBR = %v, want %v", s.RootMBR, want)
	}
	// Empty tree stats.
	if s := TreeOf(PackItems(nil)).ComputeStats(); s.Nodes != 0 || s.Items != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

// TestLevelStatsFollowMutations: a table's write publishes a new image and a
// new tree cut from it, so the memoized LevelStats of each tree in a run of
// writes equals a fresh walk of that tree — here of a tree sharing its nodes,
// which starts without a memo — and a second call returns the memo.
func TestLevelStatsFollowMutations(t *testing.T) {
	rects := randRects(3000, 77)
	base := PackItems(ItemsFromRects(rects[:1000]))
	dead := make([]uint64, (1000+63)/64)
	var delta []Item
	var prev []LevelStat
	for step, id := 0, 1000; id < len(rects); step, id = step+1, id+250 {
		for s := step; s < 1000; s += 9 {
			dead[s>>6] |= 1 << (uint(s) & 63)
		}
		for k := id; k < id+250; k++ {
			delta = append(delta, Item{Rect: rects[k], ID: k})
		}
		tr := TreeOf(base.WithOverlay(append([]uint64(nil), dead...), PackItems(delta)))
		root := tr.nodes()
		got, want := tr.LevelStats(), (&Tree{root: root, height: tr.height}).LevelStats()
		if len(got) != len(want) || len(got) != tr.Height() {
			t.Fatalf("step %d: %d levels, fresh walk %d, height %d", step, len(got), len(want), tr.Height())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: level %d = %+v, fresh walk %+v", step, i, got[i], want[i])
			}
		}
		if again := tr.LevelStats(); &again[0] != &got[0] {
			t.Fatalf("step %d: second LevelStats call walked the tree again", step)
		}
		if prev != nil && prev[len(prev)-1] == got[len(got)-1] {
			t.Fatalf("step %d: leaf level unchanged by the write: %+v", step, got[len(got)-1])
		}
		prev = got
	}
}
