package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialsel/internal/geom"
)

// bruteJoin is the O(n·m) reference join.
func bruteJoin(as, bs []geom.Rect) []JoinPair {
	var out []JoinPair
	for i, a := range as {
		for j, b := range bs {
			if a.Intersects(b) {
				out = append(out, JoinPair{A: i, B: j})
			}
		}
	}
	return out
}

func pairsEqual(a, b []JoinPair) bool {
	if len(a) != len(b) {
		return false
	}
	less := func(p []JoinPair) func(i, j int) bool {
		return func(i, j int) bool {
			if p[i].A != p[j].A {
				return p[i].A < p[j].A
			}
			return p[i].B < p[j].B
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJoinAgainstBrute(t *testing.T) {
	for _, tc := range []struct {
		name   string
		na, nb int
		seedA  int64
	}{
		{"small", 50, 60, 100},
		{"medium", 800, 700, 101},
		{"asymmetric", 2000, 100, 102},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := randRects(tc.na, tc.seedA)
			bs := randRects(tc.nb, tc.seedA+50)
			ta, _ := BulkLoadSTR(ItemsFromRects(as), WithFanout(8))
			tb, _ := BulkLoadSTR(ItemsFromRects(bs), WithFanout(8))
			got := Join(ta, tb)
			want := bruteJoin(as, bs)
			if !pairsEqual(got, want) {
				t.Fatalf("Join: got %d pairs, want %d", len(got), len(want))
			}
			if c := JoinCount(ta, tb); c != len(want) {
				t.Fatalf("JoinCount = %d, want %d", c, len(want))
			}
		})
	}
}

func TestJoinDifferentHeights(t *testing.T) {
	// A tall tree joined with a root-leaf tree exercises joinLeafNode in
	// both orientations.
	as := randRects(2000, 110)
	bs := randRects(5, 111)
	ta, _ := BulkLoadSTR(ItemsFromRects(as), WithFanout(8))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs), WithFanout(8))
	if ta.Height() <= tb.Height() {
		t.Fatalf("test setup: heights %d vs %d not different", ta.Height(), tb.Height())
	}
	want := bruteJoin(as, bs)
	if got := Join(ta, tb); !pairsEqual(got, want) {
		t.Fatalf("tall⋈short: got %d pairs, want %d", len(got), len(want))
	}
	// Swap argument order: pairs flip.
	gotSwap := Join(tb, ta)
	wantSwap := bruteJoin(bs, as)
	if !pairsEqual(gotSwap, wantSwap) {
		t.Fatalf("short⋈tall: got %d pairs, want %d", len(gotSwap), len(wantSwap))
	}
}

// TestJoinCutTrees: the join is correct over trees cut from images in Hilbert
// order, whose nodes overlap more than STR's, tombstones and deltas included.
func TestJoinCutTrees(t *testing.T) {
	as := randRects(600, 112)
	bs := randRects(500, 113)
	pb := PackItems(ItemsFromRects(bs[:400]))
	deadB := map[int]bool{}
	for id := 0; id < 400; id += 3 {
		deadB[id] = true
	}
	ta := TreeOf(PackItems(ItemsFromRects(as)))
	tb := TreeOf(pb.WithOverlay(tombstone(pb, deadB), PackItems(ItemsFromRects(bs)[400:])))
	var want []JoinPair
	for _, p := range bruteJoin(as, bs) {
		if !deadB[p.B] {
			want = append(want, p)
		}
	}
	if got := Join(ta, tb); !pairsEqual(got, want) {
		t.Fatalf("cut-tree join: got %d, want %d", len(got), len(want))
	}
}

func TestJoinEmptyAndDisjoint(t *testing.T) {
	empty := TreeOf(PackItems(nil))
	full, _ := BulkLoadSTR(ItemsFromRects(randRects(100, 120)))
	if got := Join(empty, full); got != nil {
		t.Fatalf("empty join = %v", got)
	}
	if got := Join(full, empty); got != nil {
		t.Fatalf("join empty = %v", got)
	}
	// Two spatially disjoint trees join to nothing (root clip rejects).
	var left, right []Item
	for i := 0; i < 50; i++ {
		left = append(left, Item{Rect: geom.NewRect(float64(i)*0.001, 0, float64(i)*0.001+0.0005, 0.4), ID: i})
		right = append(right, Item{Rect: geom.NewRect(float64(i)*0.001, 0.6, float64(i)*0.001+0.0005, 1), ID: i})
	}
	if got := JoinCount(TreeOf(PackItems(left)), TreeOf(PackItems(right))); got != 0 {
		t.Fatalf("disjoint JoinCount = %d", got)
	}
}

func TestJoinCountsAccesses(t *testing.T) {
	as := randRects(1000, 140)
	bs := randRects(1000, 141)
	ta, _ := BulkLoadSTR(ItemsFromRects(as))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs))
	ta.ResetAccesses()
	tb.ResetAccesses()
	JoinCount(ta, tb)
	if ta.Accesses() == 0 || tb.Accesses() == 0 {
		t.Fatalf("join did not count accesses: %d/%d", ta.Accesses(), tb.Accesses())
	}
}

// TestPropJoinMatchesBrute fuzzes clustered layouts (heavier overlap than
// uniform) against the reference join, over two differently shaped trees: one
// cut from a packed image (TreeOf) and an STR-packed one at fanout 6.
func TestPropJoinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	f := func() bool {
		n := 30 + rng.Intn(120)
		mk := func() []geom.Rect {
			cx, cy := rng.Float64(), rng.Float64()
			out := make([]geom.Rect, n)
			for i := range out {
				x := cx + rng.NormFloat64()*0.1
				y := cy + rng.NormFloat64()*0.1
				out[i] = geom.NewRect(x, y, x+rng.Float64()*0.1, y+rng.Float64()*0.1)
			}
			return out
		}
		as, bs := mk(), mk()
		ta := TreeOf(PackItems(ItemsFromRects(as)))
		tb, _ := BulkLoadSTR(ItemsFromRects(bs), WithFanout(6))
		return pairsEqual(Join(ta, tb), bruteJoin(as, bs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRTreeJoin(b *testing.B) {
	as := randRects(20000, 160)
	bs := randRects(20000, 161)
	ta, _ := BulkLoadSTR(ItemsFromRects(as))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinCount(ta, tb)
	}
}

func BenchmarkRTreeBuildSTR(b *testing.B) {
	items := ItemsFromRects(randRects(20000, 162))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoadSTR(items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTreeSearch(b *testing.B) {
	tr, _ := BulkLoadSTR(ItemsFromRects(randRects(50000, 163)))
	q := geom.NewRect(0.4, 0.4, 0.45, 0.45)
	var out []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tr.Search(q, out[:0])
	}
}
