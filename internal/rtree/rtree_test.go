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

func TestNewOptions(t *testing.T) {
	if _, err := New(WithFanout(2, 3)); err == nil {
		t.Error("max<4 accepted")
	}
	if _, err := New(WithFanout(1, 8)); err == nil {
		t.Error("min<2 accepted")
	}
	if _, err := New(WithFanout(5, 8)); err == nil {
		t.Error("min>max/2 accepted")
	}
	tr, err := New(WithFanout(2, 4))
	if err != nil {
		t.Fatalf("valid fanout rejected: %v", err)
	}
	if tr.maxEntries != 4 || tr.minEntries != 2 {
		t.Fatalf("fanout not applied: %d/%d", tr.minEntries, tr.maxEntries)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(WithFanout(0, 0))
}

func TestEmptyTree(t *testing.T) {
	tr := MustNew()
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree Len/Height = %d/%d", tr.Len(), tr.Height())
	}
	if got := tr.Search(geom.UnitSquare, nil); got != nil {
		t.Fatalf("Search on empty tree = %v", got)
	}
	if tr.Delete(geom.UnitSquare, 0) {
		t.Fatal("Delete on empty tree returned true")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSearchSmallFanout(t *testing.T) {
	// Small fanout forces many splits, stressing split/adjust paths.
	tr := MustNew(WithFanout(2, 4))
	rects := randRects(500, 1)
	for i, r := range rects {
		tr.Insert(r, i)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	queries := randRects(50, 2)
	for _, q := range queries {
		got := tr.Search(q, nil)
		want := bruteSearch(rects, q)
		if !sortedEqual(got, want) {
			t.Fatalf("Search(%v): got %d results, want %d", q, len(got), len(want))
		}
	}
}

func TestInsertSearchDefaultFanout(t *testing.T) {
	tr := MustNew()
	rects := randRects(3000, 3)
	for i, r := range rects {
		tr.Insert(r, i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, q := range randRects(30, 4) {
		if !sortedEqual(tr.Search(q, nil), bruteSearch(rects, q)) {
			t.Fatalf("Search mismatch for %v", q)
		}
	}
}

func TestSearchAppendsToOut(t *testing.T) {
	tr := MustNew()
	tr.Insert(geom.NewRect(0, 0, 1, 1), 7)
	out := []int{99}
	out = tr.Search(geom.UnitSquare, out)
	if len(out) != 2 || out[0] != 99 || out[1] != 7 {
		t.Fatalf("Search append = %v", out)
	}
}

func TestDelete(t *testing.T) {
	tr := MustNew(WithFanout(2, 4))
	rects := randRects(300, 5)
	for i, r := range rects {
		tr.Insert(r, i)
	}
	// Delete in random order, verifying invariants and queries as we go.
	rng := rand.New(rand.NewSource(6))
	order := rng.Perm(300)
	deleted := make(map[int]bool)
	for step, idx := range order {
		if !tr.Delete(rects[idx], idx) {
			t.Fatalf("Delete(%d) not found", idx)
		}
		deleted[idx] = true
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after delete %d (step %d): %v", idx, step, err)
		}
		if step%50 == 0 {
			q := geom.NewRect(0.2, 0.2, 0.8, 0.8)
			got := tr.Search(q, nil)
			var want []int
			for i, r := range rects {
				if !deleted[i] && r.Intersects(q) {
					want = append(want, i)
				}
			}
			if !sortedEqual(got, want) {
				t.Fatalf("post-delete Search mismatch at step %d", step)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after deleting all = %d", tr.Len())
	}
	// Deleting again fails cleanly.
	if tr.Delete(rects[0], 0) {
		t.Fatal("double delete returned true")
	}
}

func TestDeleteWrongRectOrID(t *testing.T) {
	tr := MustNew()
	r := geom.NewRect(0.1, 0.1, 0.2, 0.2)
	tr.Insert(r, 1)
	if tr.Delete(r, 2) {
		t.Fatal("Delete with wrong ID succeeded")
	}
	if tr.Delete(geom.NewRect(0.1, 0.1, 0.3, 0.3), 1) {
		t.Fatal("Delete with wrong rect succeeded")
	}
	if !tr.Delete(r, 1) {
		t.Fatal("Delete with exact match failed")
	}
}

func TestDuplicateRects(t *testing.T) {
	tr := MustNew(WithFanout(2, 4))
	r := geom.NewRect(0.5, 0.5, 0.6, 0.6)
	for i := 0; i < 100; i++ {
		tr.Insert(r, i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.Search(r, nil)
	if len(got) != 100 {
		t.Fatalf("Search over duplicates = %d, want 100", len(got))
	}
}

func TestAccessesCounter(t *testing.T) {
	tr := MustNew(WithFanout(2, 4))
	for i, r := range randRects(200, 7) {
		tr.Insert(r, i)
	}
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
	tr := MustNew(WithFanout(2, 4))
	rects := randRects(500, 8)
	for i, r := range rects {
		tr.Insert(r, i)
	}
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
	if s := MustNew().ComputeStats(); s.Nodes != 0 || s.Items != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

// TestLevelStatsFollowMutations: LevelStats is memoized between mutations, so
// after every Insert and Delete it must again equal a fresh walk — here the
// walk of a clone, which starts without a memo.
func TestLevelStatsFollowMutations(t *testing.T) {
	rects := randRects(600, 77)
	tr, err := BulkLoadSTR(ItemsFromRects(rects[:200]), WithFanout(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got, want := tr.LevelStats(), tr.Clone().LevelStats()
		if len(got) != len(want) {
			t.Fatalf("%s: %d levels, fresh walk %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: level %d = %+v, fresh walk %+v", when, i, got[i], want[i])
			}
		}
	}
	check("after bulk load")
	for id := 200; id < 600; id++ {
		tr.Insert(rects[id], id)
		if id%97 == 0 {
			check("after inserts")
		}
	}
	check("after all inserts")
	for id := 0; id < 500; id++ {
		if !tr.Delete(rects[id], id) {
			t.Fatalf("delete of item %d failed", id)
		}
		if id%89 == 0 {
			check("after deletes")
		}
	}
	check("after all deletes")
}
