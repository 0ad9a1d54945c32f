package rtree

import (
	"cmp"
	"math"
	"math/rand"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
)

// packOf bulk-loads rects and returns both forms.
func packOf(t *testing.T, rects []geom.Rect) (*Tree, *Packed) {
	t.Helper()
	tr, err := BulkLoadSTR(ItemsFromRects(rects), WithFanout(2, 8))
	if err != nil {
		t.Fatalf("BulkLoadSTR: %v", err)
	}
	return tr, Pack(tr)
}

// requireSameLevelStats holds the statistics Pack recorded to the walk of the
// source tree: same levels and node counts, averages within 1e-12.
func requireSameLevelStats(t *testing.T, p *Packed, tr *Tree) {
	t.Helper()
	got, want := p.LevelStats(), tr.LevelStats()
	if len(got) != len(want) {
		t.Fatalf("LevelStats has %d levels, tree walk %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Level != w.Level || g.Nodes != w.Nodes ||
			math.Abs(g.AvgWidth-w.AvgWidth) > 1e-12 || math.Abs(g.AvgHeight-w.AvgHeight) > 1e-12 ||
			math.Abs(g.AvgArea-w.AvgArea) > 1e-12 {
			t.Fatalf("LevelStats[%d] = %+v, tree walk %+v", i, g, w)
		}
	}
}

func TestPackMirrorsTree(t *testing.T) {
	load := func(rects []geom.Rect, build func([]Item, ...Option) (*Tree, error), opts ...Option) *Tree {
		tr, err := build(ItemsFromRects(rects), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// Inputs differ in build, fanout and therefore height (4, 5, 5 and 2).
	bulk, inserted := randRects(2000, 7), randRects(1500, 8)
	thinned := load(inserted, BulkLoadInsert, WithFanout(2, 6))
	live := make(map[int]geom.Rect, len(inserted))
	for id, r := range inserted {
		if id%3 == 0 {
			live[id] = r
		} else if !thinned.Delete(r, id) {
			t.Fatalf("delete of item %d failed", id)
		}
	}
	all := func(rects []geom.Rect) map[int]geom.Rect {
		m := make(map[int]geom.Rect, len(rects))
		for id, r := range rects {
			m[id] = r
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		tr    *Tree
		items map[int]geom.Rect
	}{
		{"bulk-loaded", load(bulk, BulkLoadSTR, WithFanout(2, 8)), all(bulk)},
		{"insert-built", load(inserted, BulkLoadInsert, WithFanout(2, 6)), all(inserted)},
		{"post-delete", thinned, live},
		{"wide-fanout", load(bulk[:900], BulkLoadSTR, WithFanout(30, 100)), all(bulk[:900])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, p := tc.tr, Pack(tc.tr)
			if p.Len() != tr.Len() {
				t.Fatalf("Len = %d, want %d", p.Len(), tr.Len())
			}
			if p.Height() != tr.Height() {
				t.Fatalf("Height = %d, want %d", p.Height(), tr.Height())
			}
			if got, want := p.RootMBR(), tr.root.mbr(); got != want {
				t.Fatalf("RootMBR = %v, want %v", got, want)
			}
			if p.NumNodes() != tr.ComputeStats().Nodes {
				t.Fatalf("NumNodes = %d, want %d", p.NumNodes(), tr.ComputeStats().Nodes)
			}
			requireSameLevelStats(t, p, tr)

			// Every item survives with its exact rect.
			seen := make(map[int]geom.Rect, len(tc.items))
			p.VisitItems(func(id int, r geom.Rect) {
				if _, dup := seen[id]; dup {
					t.Fatalf("item %d appears twice", id)
				}
				seen[id] = r
			})
			if len(seen) != len(tc.items) {
				t.Fatalf("VisitItems yielded %d items, want %d", len(seen), len(tc.items))
			}
			for id, r := range seen {
				if r != tc.items[id] {
					t.Fatalf("item %d rect = %v, want %v", id, r, tc.items[id])
				}
			}
		})
	}
}

func TestPackEmptyAndSingle(t *testing.T) {
	empty, err := New()
	if err != nil {
		t.Fatal(err)
	}
	p := Pack(empty)
	if p.Len() != 0 || p.NumNodes() != 0 || p.Height() != 0 {
		t.Fatalf("empty pack: len=%d nodes=%d height=%d", p.Len(), p.NumNodes(), p.Height())
	}
	requireSameLevelStats(t, p, empty)
	if got := p.Search(geom.NewRect(0, 0, 1, 1), nil); len(got) != 0 {
		t.Fatalf("empty search returned %v", got)
	}

	one, _ := New()
	one.Insert(geom.NewRect(0.3, 0.3, 0.3, 0.3), 42) // degenerate point rect
	ps := Pack(one)
	if ps.Len() != 1 {
		t.Fatalf("single pack len = %d", ps.Len())
	}
	requireSameLevelStats(t, ps, one)
	if got := ps.Search(geom.NewRect(0, 0, 1, 1), nil); len(got) != 1 || got[0] != 42 {
		t.Fatalf("single search = %v, want [42]", got)
	}
}

// gridQueries returns the queries aimed at what is new about a grid probe:
// edges exactly on tile lines, zero-area queries on a tile corner and along a
// tile edge, queries reaching outside the unit square or lying outside it — so
// their range clamps into the border tiles — and one over the whole of a
// [0, 1000]² table.
func gridQueries() []geom.Rect {
	const d = tileDim
	return []geom.Rect{
		geom.NewRect(3.0/d, 5.0/d, 7.0/d, 6.0/d),     // every edge on a tile line
		geom.NewRect(16.0/d, 16.0/d, 17.0/d, 17.0/d), // exactly one tile, closed
		geom.NewRect(8.0/d, 8.0/d, 8.0/d, 8.0/d),     // zero area, on a tile corner
		geom.NewRect(0, 9.0/d, 1, 9.0/d),             // zero height, along a tile line
		geom.NewRect(10.0/d, 0.1, 10.0/d, 0.9),       // zero width, along a tile line
		geom.NewRect(-0.5, 0.2, 0.25, 0.3),           // reaches out on the left
		geom.NewRect(0.9, 0.9, 1.5, 1.5),             // reaches out at the top right corner
		geom.NewRect(-2, -2, -1, 3),                  // left of the square: first column only
		geom.NewRect(1.5, 1.5, 2.5, 2.5),             // beyond the top right corner: last tile only
		geom.NewRect(1, 1, 1, 1),                     // the square's far corner
		geom.NewRect(0, 0, 1000, 1000),               // everything, of any extent
		geom.NewRect(250, 250, 500, 260),             // inside a [0, 1000]² table
	}
}

// requireSearchOrder holds one Search's hits to the documented order: the
// planes' before the delta's, and within an image by reporting tile, row-major
// — the tile where the item's range or q's starts, in y and in x — then by
// (xmin, slot), the wide run's items last.
func requireSearchOrder(t *testing.T, p *Packed, q geom.Rect, got []int) {
	t.Helper()
	type key struct {
		image, wide, ty, tx int
		xmin                float64
		slot                int
	}
	keys := make(map[int]key, p.Len())
	for image, img := range []*Packed{p, p.delta} {
		if img == nil || img.tiles == nil {
			continue
		}
		wide := map[int]bool{}
		for _, r := range img.tiles.wide() {
			wide[int(r>>refShift)] = true
		}
		for slot, id := range img.itemID {
			k := key{image: image, xmin: img.itemXMin[slot], slot: slot}
			if wide[slot] {
				k.wide = 1
			} else {
				k.ty = max(tileOf(img.itemYMin[slot]), tileOf(q.MinY))
				k.tx = max(tileOf(img.itemXMin[slot]), tileOf(q.MinX))
			}
			keys[id] = k
		}
	}
	for i := 1; i < len(got); i++ {
		a, b := keys[got[i-1]], keys[got[i]]
		if c := cmp.Or(cmp.Compare(a.image, b.image), cmp.Compare(a.wide, b.wide), cmp.Compare(a.ty, b.ty),
			cmp.Compare(a.tx, b.tx), cmp.Compare(a.xmin, b.xmin), cmp.Compare(a.slot, b.slot)); c >= 0 {
			t.Fatalf("query %v: hits %d, %d come as %+v, %+v: out of order", q, got[i-1], got[i], a, b)
		}
	}
}

// TestPackedSearchMatchesTree holds the tile probe to the pointer tree's hit
// set — equal as sorted sequences, so no id twice: a duplicate is the failure
// a grid has and a tree does not — on ordinary, degenerate (point, zero-width,
// zero-height), all-covering and all-missing queries and on the grid's own
// cases, over tables that sit inside the unit square, on its tile lines,
// outside it, in a [0, 1000]² extent (everything clamps into the border
// tiles), and one with enough extent-sized rectangles to populate the wide
// run — and to the order contract Search documents.
func TestPackedSearchMatchesTree(t *testing.T) {
	queries := append(randRects(64, 10), latticeRects(64, 12)...)
	queries = append(queries,
		geom.NewRect(-1, -1, 2, 2),         // covers everything
		geom.NewRect(0.5, 0.5, 0.5, 0.5),   // point
		geom.NewRect(0.25, 0, 0.25, 1),     // zero width, full height
		geom.NewRect(0, 0.75, 1, 0.75),     // zero height, full width
		geom.NewRect(5, 5, 6, 6),           // misses all data
		geom.NewRect(-1, -1, 0, 0),         // touches the extent's corner only
		geom.NewRect(0.5, 0.5, 0.53125, 1), // edges on the 1/32 lattice
	)
	queries = append(queries, gridQueries()...)
	queries = append(queries, tileLineRects(48, 14)...)
	for _, tc := range []struct {
		name  string
		rects []geom.Rect
		opts  []Option
		wide  bool
	}{
		{"uniform", randRects(1500, 9), []Option{WithFanout(2, 8)}, false},
		{"zero-area", latticeRects(1500, 305), []Option{WithFanout(2, 8)}, false},
		{"wide-fanout", randRects(9000, 35), []Option{WithFanout(30, 100)}, false},
		{"single-leaf", randRects(5, 27), nil, false},
		{"tile-lines", tileLineRects(1500, 307), []Option{WithFanout(2, 8)}, false},
		{"spanning", spanningRects(250, 311), []Option{WithFanout(2, 8)}, true},
		{"outside-unit", scaled(randRects(900, 316), -2, 3), []Option{WithFanout(2, 8)}, false},
		{"extent-1000", scaled(randRects(700, 318), 0, 1000), []Option{WithFanout(2, 8)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := BulkLoadSTR(ItemsFromRects(tc.rects), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			p := Pack(tr)
			if got := len(p.tiles.wide()) > 0; got != tc.wide {
				t.Fatalf("image has wide items: %v, the case wants %v", got, tc.wide)
			}
			qs := queries
			if tc.name == "extent-1000" {
				qs = append(scaled(randRects(32, 15), 0, 1000), queries...)
			}
			for _, q := range qs {
				got := p.Search(q, nil)
				requireSearchOrder(t, p, q, got)
				if want := tr.Search(q, nil); !sortedEqual(got, want) {
					t.Fatalf("query %v: packed %d hits, tree %d", q, len(got), len(want))
				}
			}
		})
	}
}

// TestPackHilbertLeafOrder pins the read-optimized layout: the source tree's
// leaves take consecutive runs of slots, left to right, and within every run
// items ascend by Hilbert key of their rect (ties by id).
func TestPackHilbertLeafOrder(t *testing.T) {
	rects := clusteredRects(1200, 13)
	tr, p := packOf(t, rects)
	curveMBR := tr.root.mbr()
	if curveMBR.Area() <= 0 {
		curveMBR = curveMBR.Expand(1e-9)
	}
	curve := hilbert.MustNew(hilbert.MaxOrder, curveMBR)
	var ids []int
	var rs []geom.Rect
	p.VisitItems(func(id int, r geom.Rect) { ids, rs = append(ids, id), append(rs, r) })
	s := 0
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf {
			for _, e := range n.entries {
				walk(e.child)
			}
			return
		}
		inLeaf := make(map[int]bool, len(n.entries))
		for _, e := range n.entries {
			inLeaf[e.id] = true
		}
		for i := s; i < s+len(n.entries); i++ {
			if !inLeaf[ids[i]] {
				t.Fatalf("slot %d holds item %d, not one of the leaf's whose run starts at %d", i, ids[i], s)
			}
			if i == s {
				continue
			}
			kp, kc := curve.RectIndex(rs[i-1]), curve.RectIndex(rs[i])
			if kp > kc || (kp == kc && ids[i-1] >= ids[i]) {
				t.Fatalf("leaf run at %d: items %d,%d out of Hilbert order (keys %d,%d ids %d,%d)",
					s, i-1, i, kp, kc, ids[i-1], ids[i])
			}
		}
		s += len(n.entries)
	}
	walk(tr.root)
	if s != len(ids) {
		t.Fatalf("the tree's leaves hold %d items, the image %d", s, len(ids))
	}
}

// BenchmarkPack is the build cost of a published image per paper table at
// join-paper's scales, in ns per item — the tree walk, the per-leaf Hilbert
// sort and the tile index — and the index's replication, in entries per item
// (EXPERIMENTS.md "Tile sweep").
func BenchmarkPack(b *testing.B) {
	for _, d := range []*dataset.Dataset{
		datagen.TS(1), datagen.TCB(1), datagen.SP(1), datagen.SPG(1),
		datagen.SCRC(1), datagen.SURA(1), datagen.CAS(0.1), datagen.CAR(0.1),
	} {
		tr, err := BulkLoadSTR(ItemsFromRects(d.Items))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Pack(tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(d.Items)), "ns/item")
			b.ReportMetric(float64(len(Pack(tr).tiles.keys))/float64(len(d.Items)), "entries/item")
		})
	}
}

// BenchmarkPackedSearch says where the probe stands without bench/: every
// rectangle of one table searched in the other's image, hits per probe
// reported. The first three lanes are multiway-window's extension steps at
// its scale (item rectangles, one to four tiles each) and a pair at full
// scale; uniform-20k is a table of larger items (sides ≤ 0.05, ×17.6
// replication) probed with its like. The last two — a query 0.1 on a side
// over 20 000 small items, 0.3 on a side over 200 000 — are window-sized
// queries, where scanning every entry of the tiles met takes 1.5–1.9× what a
// tree descent did (EXPERIMENTS.md "Tile probes"). They are outside the
// executor's traffic: a window is applied inside the first-join kernel and as
// a per-candidate filter of extension steps, never as a Search.
func BenchmarkPackedSearch(b *testing.B) {
	sized := func(n int, maxSide float64, seed int64) []geom.Rect {
		return datagen.Uniform("uniform", n, maxSide, seed).Items
	}
	squares := func(n int, side float64, seed int64) []geom.Rect {
		rng := rand.New(rand.NewSource(seed))
		out := make([]geom.Rect, n)
		for i := range out {
			x, y := rng.Float64()*(1-side), rng.Float64()*(1-side)
			out[i] = geom.NewRect(x, y, x+side, y+side)
		}
		return out
	}
	for _, lane := range []struct {
		name           string
		queries, items []geom.Rect
	}{
		{"SP-SPG-0.2", datagen.SP(0.2).Items, datagen.SPG(0.2).Items},
		{"SCRC-SURA-1", datagen.SCRC(1).Items, datagen.SURA(1).Items},
		{"TS-TCB-1", datagen.TS(1).Items, datagen.TCB(1).Items},
		{"uniform-20k-side-0.05", sized(20000, 0.05, 61), sized(20000, 0.05, 62)},
		{"window-0.1-over-20k", squares(1000, 0.1, 63), sized(20000, 0.004, 64)},
		{"window-0.3-over-200k", squares(200, 0.3, 65), sized(200000, 0.004, 66)},
	} {
		b.Run(lane.name, func(b *testing.B) {
			tr, err := BulkLoadSTR(ItemsFromRects(lane.items))
			if err != nil {
				b.Fatal(err)
			}
			p := Pack(tr)
			var buf []int
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = p.Search(lane.queries[i%len(lane.queries)], buf[:0])
				hits += len(buf)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// TestOverlayImageMirrorsPack holds every overlay shape the join oracle uses
// to the read surface beside the kernel: the image must answer Len, VisitItems
// (as a set) and Search exactly as a fresh Pack of the surviving items does —
// each id once, in the documented order — report its overlay's size, share the
// planes of the image it was derived from and leave that image as it was. The
// tables beyond the first four are the grid's: tombstones falling on entries
// replicated into several tiles and into the wide run, everything clamped into
// the border tiles; base-dead makes every hit a delta-only hit.
func TestOverlayImageMirrorsPack(t *testing.T) {
	queries := append(randRects(48, 10), latticeRects(16, 12)...)
	queries = append(queries, geom.NewRect(-1, -1, 2, 2), geom.NewRect(5, 5, 6, 6))
	queries = append(queries, gridQueries()...)
	queries = append(queries, tileLineRects(24, 14)...)
	for _, tc := range []struct {
		name  string
		rects []geom.Rect
		opts  []Option
	}{
		{"uniform", randRects(1500, 9), []Option{WithFanout(2, 8)}},
		{"wide-fanout", randRects(3000, 35), []Option{WithFanout(30, 100)}},
		{"single-leaf", randRects(5, 27), nil},
		{"empty", nil, nil},
		{"tile-lines", tileLineRects(1500, 307), []Option{WithFanout(2, 8)}},
		{"spanning", spanningRects(250, 311), []Option{WithFanout(2, 8)}},
		{"outside-unit", scaled(randRects(900, 316), -2, 3), []Option{WithFanout(2, 8)}},
		{"extent-1000", scaled(randRects(700, 318), 0, 1000), []Option{WithFanout(2, 8)}},
	} {
		for _, sh := range []overlayShape{plainShape, tombstonesShape, deltaShape, bothShape, lanesShape, baseDeadShape, deltaEmptiedShape} {
			t.Run(tc.name+"/"+sh.name, func(t *testing.T) {
				img, alive := sh.build(t, tc.rects, BulkLoadSTR, tc.opts)
				var live []Item
				tombstones, added := 0, 0
				k := sh.split(len(tc.rects))
				for id, r := range tc.rects {
					switch {
					case alive[id]:
						live = append(live, Item{Rect: r, ID: id})
						if id >= k {
							added++
						}
					case id < k:
						tombstones++
					}
				}
				tr, err := BulkLoadSTR(live, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := Pack(tr)

				if img.Len() != want.Len() {
					t.Fatalf("Len = %d, Pack of the survivors holds %d", img.Len(), want.Len())
				}
				if d, ts := img.Overlay(); d != added || ts != tombstones {
					t.Fatalf("Overlay = (%d, %d), want (%d, %d)", d, ts, added, tombstones)
				}
				seen := make(map[int]bool, img.Len())
				img.VisitItems(func(id int, r geom.Rect) {
					if seen[id] || !alive[id] || tc.rects[id] != r {
						t.Fatalf("VisitItems reported item %d (%v) twice, dead or with the wrong rect", id, r)
					}
					seen[id] = true
				})
				if len(seen) != want.Len() {
					t.Fatalf("VisitItems reported %d items, want %d", len(seen), want.Len())
				}
				for _, q := range queries {
					got := img.Search(q, nil)
					requireSearchOrder(t, img, q, got)
					if ref := want.Search(q, nil); !sortedEqual(got, ref) {
						t.Fatalf("query %v: overlay image %d hits, Pack of the survivors %d", q, len(got), len(ref))
					}
				}

				// The image the overlay was laid over: same planes, every item.
				base := img.WithOverlay(nil, nil)
				if !base.SharesPlanes(img) || base.SharesPlanes(want) && want.Len() > 0 {
					t.Fatal("SharesPlanes does not tell the derived image from a fresh Pack")
				}
				if d, ts := base.Overlay(); d != 0 || ts != 0 || base.Len() != k {
					t.Fatalf("planes hold %d items under overlay (%d, %d), want %d under none", base.Len(), d, ts, k)
				}
			})
		}
	}
}

// TestWithOverlayRejectsMisuse: a bitmap that does not match the planes, or a
// delta that itself carries an overlay, is a caller's bug and panics rather
// than publishing an image that reads the wrong slots.
func TestWithOverlayRejectsMisuse(t *testing.T) {
	_, p := packOf(t, randRects(200, 3))
	_, d := packOf(t, randRects(20, 4))
	for name, f := range map[string]func(){
		"short bitmap":     func() { p.WithOverlay(make([]uint64, 1), nil) },
		"overlaid delta":   func() { p.WithOverlay(nil, d.WithOverlay(nil, d)) },
		"tombstoned delta": func() { p.WithOverlay(nil, d.WithOverlay([]uint64{1}, nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: WithOverlay did not panic", name)
				}
			}()
			f()
		}()
	}
}
