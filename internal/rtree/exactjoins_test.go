package rtree

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"spatialsel/internal/geom"
	"spatialsel/internal/sweep"
)

// latticeRects draws n rectangles whose corners lie on a 1/32 lattice, a
// third of them points and a third axis-parallel segments. Lattice corners
// are exact in binary, so rectangles that meet only along an edge or at a
// corner — and zero-area ones lying on another's boundary — are common
// instead of measure-zero accidents.
func latticeRects(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := float64(rng.Intn(30))/32, float64(rng.Intn(30))/32
		w, h := float64(1+rng.Intn(2))/32, float64(1+rng.Intn(2))/32
		switch i % 3 {
		case 0:
			w, h = 0, 0
		case 1:
			if rng.Intn(2) == 0 {
				w = 0
			} else {
				h = 0
			}
		}
		out[i] = geom.NewRect(x, y, x+w, y+h)
	}
	return out
}

// tileLineRects draws n rectangles whose corners lie on the join grid's own
// lines — multiples of 1/tileDim, exact in binary — a third of them points on
// tile corners, a third segments along tile edges, the rest spanning one to
// four tiles a side: every closed-interval boundary the tile assignment and
// the sweep can disagree on, and replicated entries for tombstones to fall on.
func tileLineRects(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := float64(rng.Intn(tileDim/4)), float64(rng.Intn(tileDim/4))
		w, h := float64(rng.Intn(4)), float64(rng.Intn(4))
		switch i % 3 {
		case 0:
			w, h = 0, 0
		case 1:
			if rng.Intn(2) == 0 {
				w = 0
			} else {
				h = 0
			}
		}
		out[i] = geom.NewRect(x/tileDim, y/tileDim, (x+w)/tileDim, (y+h)/tileDim)
	}
	return out
}

// spanningRects mixes small rectangles with ones spanning a strip of tiles, a
// block of them and the whole unit square — a few of each, so some replicate
// into thousands of tiles and, past the index's budget, land in the wide run.
func spanningRects(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := randRects(n, seed)
	for i := 0; i < n; i += 7 {
		x, y := rng.Float64()*0.5, rng.Float64()*0.5
		switch i / 7 % 4 {
		case 0:
			out[i] = geom.NewRect(0, y, 1, y+0.001)
		case 1:
			out[i] = geom.NewRect(x, 0, x, 1)
		case 2:
			out[i] = geom.NewRect(x, y, x+0.4, y+0.45)
		case 3:
			out[i] = geom.NewRect(0, 0, 1, 1)
		}
	}
	return out
}

// scaled maps rects drawn in the unit square onto [lo, hi]².
func scaled(rs []geom.Rect, lo, hi float64) []geom.Rect {
	out := make([]geom.Rect, len(rs))
	for i, r := range rs {
		out[i] = geom.NewRect(lo+r.MinX*(hi-lo), lo+r.MinY*(hi-lo), lo+r.MaxX*(hi-lo), lo+r.MaxY*(hi-lo))
	}
	return out
}

// tiles returns the k×k partition of the unit square into closed squares:
// neighbours share an edge, diagonal neighbours a corner, nothing overlaps.
func tiles(k int) []geom.Rect {
	out := make([]geom.Rect, 0, k*k)
	s := 1 / float64(k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			out = append(out, geom.NewRect(float64(i)*s, float64(j)*s, float64(i+1)*s, float64(j+1)*s))
		}
	}
	return out
}

// repeated returns n copies of each rect, interleaved.
func repeated(n int, rects ...geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, n*len(rects))
	for i := 0; i < n; i++ {
		out = append(out, rects...)
	}
	return out
}

// pairsOf reads the kernel's batches of interleaved ids back as pairs, in
// emission order.
func pairsOf(batches [][]int) []JoinPair {
	var out []JoinPair
	for _, batch := range batches {
		for i := 0; i < len(batch); i += 2 {
			out = append(out, JoinPair{A: batch[i], B: batch[i+1]})
		}
	}
	return out
}

// joinWindows is the window pairs (nil = none) the windowed kernel is held to
// "brute force, then filter" on, for inputs as ⋈ bs.
func joinWindows(as, bs []geom.Rect) []struct {
	name       string
	winA, winB *geom.Rect
} {
	win := func(x1, y1, x2, y2 float64) *geom.Rect { r := geom.NewRect(x1, y1, x2, y2); return &r }
	// A window that starts exactly on an a-item's right and top edges — the
	// item only touches it, and touching counts — and a point window on a
	// b-item's corner.
	edge, point := win(0.25, 0.25, 0.5, 0.5), win(0.5, 0.5, 0.5, 0.5)
	if len(as) > 0 {
		edge = win(as[0].MaxX, as[0].MaxY, as[0].MaxX+0.25, as[0].MaxY+0.25)
	}
	if len(bs) > 0 {
		point = win(bs[0].MinX, bs[0].MaxY, bs[0].MinX, bs[0].MaxY)
	}
	return []struct {
		name       string
		winA, winB *geom.Rect
	}{
		{"none", nil, nil},
		{"a-only", win(0.1, 0.2, 0.6, 0.7), nil},
		{"b-only", nil, win(0.3, 0.1, 0.9, 0.5)},
		{"both", win(0.1, 0.2, 0.6, 0.7), win(0.3, 0.1, 0.9, 0.5)},
		{"covering", win(-1, -1, 20, 20), win(-1, -1, 20, 20)},
		{"missing", win(-5, -5, -4, -4), nil},
		{"point", nil, point},
		{"item-edge", edge, nil},
		// Only pairs straddling the gap qualify, and they meet inside neither
		// window: a kernel that shrank its clip by a window would lose them.
		{"disjoint-from-each-other", win(0, 0, 0.48, 1), win(0.5, 0, 1, 1)},
	}
}

// overlayShape says how one side's rectangles reach an image the way the
// ingest front builds one: the first split(n) of them packed as planes, the
// rest as a delta, and dead deciding which are deleted — by tombstone when
// the item sits in the planes (slot ≥ 0), by leaving it out of the delta
// otherwise (slot −1).
type overlayShape struct {
	name  string
	split func(n int) int
	dead  func(id, slot int) bool
}

var (
	allInBase  = func(n int) int { return n }
	twoThirds  = func(n int) int { return 2 * n / 3 }
	plainShape = overlayShape{"plain", allInBase, func(int, int) bool { return false }}
	bothShape  = overlayShape{"both", twoThirds, func(id, _ int) bool { return id%3 == 1 }}
	// One tombstone in every eight slots of the planes, walking through the
	// eight positions — and so through every byte of the bitmap's words.
	lanesShape = overlayShape{"lanes", allInBase, func(_, slot int) bool { const lanes = 8; return slot%lanes == slot/lanes%lanes }}
	// Every item of the planes is dead: the image is its delta.
	baseDeadShape = overlayShape{"base-dead", func(n int) int { return n / 2 }, func(_, slot int) bool { return slot >= 0 }}
	// Every delta item was deleted again, beside some tombstones.
	deltaEmptiedShape = overlayShape{"delta-emptied", twoThirds, func(id, slot int) bool { return slot < 0 || id%5 == 0 }}
	tombstonesShape   = overlayShape{"tombstones", allInBase, func(id, _ int) bool { return id%3 == 0 }}
	deltaShape        = overlayShape{"delta", twoThirds, func(int, int) bool { return false }}
)

// build returns the shape's image of rects, ids being positions in rects, and
// which ids it holds.
func (sh overlayShape) build(t *testing.T, rects []geom.Rect, load func([]Item, ...Option) (*Tree, error), opts []Option) (*Packed, []bool) {
	t.Helper()
	k := sh.split(len(rects))
	baseTree, err := load(ItemsFromRects(rects[:k]), opts...)
	if err != nil {
		t.Fatal(err)
	}
	base := Pack(baseTree)
	alive := make([]bool, len(rects))
	dead := make([]uint64, (k+63)/64)
	slot := 0
	base.VisitItems(func(id int, _ geom.Rect) {
		if alive[id] = !sh.dead(id, slot); !alive[id] {
			dead[slot>>6] |= 1 << (uint(slot) & 63)
		}
		slot++
	})
	var added []Item
	for id := k; id < len(rects); id++ {
		if alive[id] = !sh.dead(id, -1); alive[id] {
			added = append(added, Item{Rect: rects[id], ID: id})
		}
	}
	deltaTree, err := load(added, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return base.WithOverlay(dead, Pack(deltaTree)), alive
}

// TestExactJoinsAgree is the one differential oracle over every exact
// rectangle join in the repository: the pointer R-tree join, the packed
// kernel's tile sweep serial and with pools of 2 and 4, and the plane sweep
// must each emit exactly the brute-force pair set — every pair once, none
// twice — on ordinary inputs and on the shapes that break joins: empty and
// disjoint sides, trees of different heights and builds, zero-area MBRs,
// rectangles that only touch, exact duplicates, and what breaks a grid:
// corners on tile lines, items spanning the square, everything in one tile,
// coordinates outside the unit square. On every input the packed
// kernel's batches must also be the callback drain's sequence, its windowed
// form must equal "brute force, then filter", its emission order must be the
// same for every pool size, and its output counter must advance by exactly the
// pairs it returned. The same holds when either side or
// both reach the kernel as packed planes under an overlay — tombstones only,
// a delta only, both, a tombstone in every lane position, planes with no live
// item left, a delta deleted empty — against brute force over the items the
// overlay leaves.
func TestExactJoinsAgree(t *testing.T) {
	allOverlap := func(n int, seed int64) []geom.Rect {
		// Every rectangle covers the center: all n×m pairs intersect.
		rng := rand.New(rand.NewSource(seed))
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = geom.NewRect(0.4-rng.Float64()*0.4, 0.4-rng.Float64()*0.4,
				0.6+rng.Float64()*0.4, 0.6+rng.Float64()*0.4)
		}
		return out
	}
	shifted := func(rs []geom.Rect, dx float64) []geom.Rect {
		out := make([]geom.Rect, len(rs))
		for i, r := range rs {
			out[i] = geom.NewRect(r.MinX+dx, r.MinY, r.MaxX+dx, r.MaxY)
		}
		return out
	}
	narrow := []Option{WithFanout(2, 8)}
	for _, tc := range []struct {
		name   string
		as, bs []geom.Rect
		load   func([]Item, ...Option) (*Tree, error)
		opts   []Option
	}{
		{"uniform", randRects(4000, 300), randRects(3000, 301), BulkLoadSTR, narrow},
		{"clustered", clusteredRects(3000, 300), clusteredRects(3000, 301), BulkLoadSTR, narrow},
		{"asymmetric", randRects(8000, 230), randRects(300, 231), BulkLoadSTR, narrow},
		{"all-overlapping", allOverlap(120, 300), allOverlap(80, 301), BulkLoadSTR, narrow},
		{"single-item", randRects(1, 300), randRects(500, 301), BulkLoadSTR, narrow},
		{"insert-built", randRects(3000, 232), randRects(2500, 233), BulkLoadInsert, []Option{WithFanout(2, 6)}},
		{"wide-fanout", randRects(900, 35), randRects(800, 36), BulkLoadSTR, []Option{WithFanout(30, 100)}},
		{"tall-short", randRects(2000, 110), randRects(5, 111), BulkLoadSTR, narrow},
		{"short-tall", randRects(5, 111), randRects(2000, 110), BulkLoadSTR, narrow},
		{"empty-full", nil, randRects(200, 302), BulkLoadSTR, nil},
		{"full-empty", randRects(200, 302), nil, BulkLoadSTR, nil},
		{"empty-empty", nil, nil, BulkLoadSTR, nil},
		{"disjoint", randRects(300, 303), shifted(randRects(300, 304), 10), BulkLoadSTR, narrow},
		{"zero-area", latticeRects(1500, 305), latticeRects(1200, 306), BulkLoadSTR, narrow},
		{"touching-edges", tiles(16), tiles(8), BulkLoadSTR, narrow},
		{"touching-shifted", tiles(16), shifted(tiles(16), 1), BulkLoadSTR, narrow},
		// What a grid can get wrong and a tree cannot. Corners on the grid's
		// own lines, zero-area items on tile corners included.
		{"tile-lines", tileLineRects(1500, 307), tileLineRects(1200, 308), BulkLoadSTR, narrow},
		// Items spanning many tiles and the whole square, replicated and wide.
		{"spanning", spanningRects(250, 311), spanningRects(200, 312), BulkLoadSTR, narrow},
		{"spanning-small", spanningRects(250, 311), randRects(600, 313), BulkLoadSTR, narrow},
		// Every item in one tile: the sweep alone does the work.
		{"one-tile", scaled(randRects(600, 314), 0.5, 0.5+1.0/tileDim-1e-9), scaled(randRects(500, 315), 0.5, 0.5+1.0/tileDim-1e-9), BulkLoadSTR, narrow},
		// Coordinates outside the unit square clamp into the border tiles —
		// slow there, never wrong — on one side, all four and the corners.
		{"outside-unit", scaled(randRects(900, 316), -2, 3), scaled(randRects(800, 317), -2, 3), BulkLoadSTR, narrow},
		{"extent-1000", scaled(randRects(700, 318), 0, 1000), scaled(randRects(600, 319), 0, 1000), BulkLoadSTR, narrow},
		{"exact-duplicates", repeated(150, geom.NewRect(0.25, 0.25, 0.5, 0.5), geom.NewRect(0.75, 0.75, 0.875, 0.875)),
			repeated(100, geom.NewRect(0.25, 0.25, 0.5, 0.5), geom.NewRect(0.5, 0.5, 0.75, 0.75)), BulkLoadSTR, narrow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ta, err := tc.load(ItemsFromRects(tc.as), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := tc.load(ItemsFromRects(tc.bs), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			pa, pb := Pack(ta), Pack(tb)
			ctx := context.Background()
			packedPool := func(workers int) func(func(a, b int)) error {
				return func(emit func(a, b int)) error {
					return PackedJoinFuncParallelContext(ctx, pa, pb, workers, emit)
				}
			}
			want := bruteJoin(tc.as, tc.bs)
			for _, impl := range []struct {
				name string
				run  func(emit func(a, b int)) error
			}{
				{"pointer", func(emit func(a, b int)) error { return JoinFuncContext(ctx, ta, tb, emit) }},
				{"packed", func(emit func(a, b int)) error { return PackedJoinFuncContext(ctx, pa, pb, emit) }},
				{"packed-2-workers", packedPool(2)},
				{"packed-4-workers", packedPool(4)},
				{"sweep", func(emit func(a, b int)) error { sweep.JoinFunc(tc.as, tc.bs, emit); return nil }},
			} {
				got := make(map[JoinPair]int, len(want))
				if err := impl.run(func(a, b int) { got[JoinPair{A: a, B: b}]++ }); err != nil {
					t.Fatalf("%s: %v", impl.name, err)
				}
				for _, p := range want {
					if got[p] != 1 {
						t.Fatalf("%s emitted pair %v %d times, want once (%v ∩ %v)",
							impl.name, p, got[p], tc.as[p.A], tc.bs[p.B])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s emitted %d distinct pairs, brute force finds %d", impl.name, len(got), len(want))
				}
			}

			// checkKernel holds the packed kernel on images ia ⋈ ib — which hold
			// the a- and b-items keep admits — to every contract above, under
			// each of the given windows and pool sizes 1, 2 and 4.
			checkKernel := func(name string, ia, ib *Packed, keep func(JoinPair) bool, windows map[string]bool) {
				serial := map[string][]JoinPair{} // by window, in emission order
				for _, workers := range []int{1, 2, 4} {
					for _, w := range joinWindows(tc.as, tc.bs) {
						if windows != nil && !windows[w.name] {
							continue
						}
						before := packedJoinCounters.outputPairs.Value()
						batches, err := PackedJoinBatches(ctx, ia, ib, workers, w.winA, w.winB)
						if err != nil {
							t.Fatalf("%s workers=%d windows=%s: %v", name, workers, w.name, err)
						}
						got := pairsOf(batches)
						if n := packedJoinCounters.outputPairs.Value() - before; n != uint64(len(got)) {
							t.Fatalf("%s workers=%d windows=%s: output counter advanced by %d for %d pairs", name, workers, w.name, n, len(got))
						}
						// The order is a function of the images and the windows, not
						// of the pool.
						if workers == 1 {
							serial[w.name] = append([]JoinPair(nil), got...)
						} else if !slices.Equal(got, serial[w.name]) {
							t.Fatalf("%s workers=%d windows=%s: emission order differs from the serial run's", name, workers, w.name)
						}
						if w.winA == nil && w.winB == nil {
							// The callback entry point is a drain of these batches.
							var drained []JoinPair
							if err := PackedJoinFuncParallelContext(ctx, ia, ib, workers, func(a, b int) {
								drained = append(drained, JoinPair{A: a, B: b})
							}); err != nil {
								t.Fatal(err)
							}
							if len(drained) != len(got) {
								t.Fatalf("%s workers=%d: drain emitted %d pairs, batches hold %d", name, workers, len(drained), len(got))
							}
							for i := range got {
								if drained[i] != got[i] {
									t.Fatalf("%s workers=%d: drain pair %d = %v, batches have %v", name, workers, i, drained[i], got[i])
								}
							}
						}
						var filtered []JoinPair
						for _, p := range want {
							if keep(p) && (w.winA == nil || tc.as[p.A].Intersects(*w.winA)) && (w.winB == nil || tc.bs[p.B].Intersects(*w.winB)) {
								filtered = append(filtered, p)
							}
						}
						if len(filtered) == 0 && tc.name == "uniform" && w.name != "missing" {
							t.Fatalf("%s windows=%s select nothing on the uniform input; the case is vacuous", name, w.name)
						}
						// Equal lengths and equal sorted sequences: every filtered
						// pair exactly once, nothing else.
						if !pairsEqual(got, filtered) {
							t.Fatalf("%s workers=%d windows=%s: kernel returned %d pairs, filter-after-join keeps %d",
								name, workers, w.name, len(got), len(filtered))
						}
					}
				}
			}
			checkKernel("packed", pa, pb, func(JoinPair) bool { return true }, nil)

			fewWindows := map[string]bool{"none": true, "both": true}
			for _, sh := range []struct {
				a, b    overlayShape
				windows map[string]bool
			}{
				{tombstonesShape, plainShape, fewWindows},
				{plainShape, tombstonesShape, fewWindows},
				{deltaShape, plainShape, fewWindows},
				{plainShape, deltaShape, fewWindows},
				{bothShape, bothShape, nil},
				{lanesShape, lanesShape, nil},
				{baseDeadShape, deltaShape, fewWindows},
				{deltaShape, baseDeadShape, fewWindows},
				{deltaEmptiedShape, bothShape, fewWindows},
				{bothShape, deltaEmptiedShape, fewWindows},
			} {
				oa, aliveA := sh.a.build(t, tc.as, tc.load, tc.opts)
				ob, aliveB := sh.b.build(t, tc.bs, tc.load, tc.opts)
				checkKernel(sh.a.name+"⋈"+sh.b.name, oa, ob,
					func(p JoinPair) bool { return aliveA[p.A] && aliveB[p.B] }, sh.windows)
			}
		})
	}
}
