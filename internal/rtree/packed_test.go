package rtree

import (
	"math"
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

// TestPackedSearchMatchesTree holds the masked probe traversal to the pointer
// tree's hit set on ordinary, degenerate (point, zero-width, zero-height),
// all-covering and all-missing queries, over narrow and wider-than-a-mask-word
// fanouts — and to its order contract: hits come back in ascending item slot,
// which is what keeps the executor's probe-step row order stable.
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
	for _, tc := range []struct {
		name  string
		rects []geom.Rect
		opts  []Option
	}{
		{"uniform", randRects(1500, 9), []Option{WithFanout(2, 8)}},
		{"zero-area", latticeRects(1500, 305), []Option{WithFanout(2, 8)}},
		{"wide-fanout", randRects(9000, 35), []Option{WithFanout(30, 100)}},
		{"single-leaf", randRects(5, 27), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := BulkLoadSTR(ItemsFromRects(tc.rects), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			p := Pack(tr)
			slot := make(map[int]int, p.Len())
			p.VisitItems(func(id int, _ geom.Rect) { slot[id] = len(slot) })
			for _, q := range queries {
				got := p.Search(q, nil)
				for i := 1; i < len(got); i++ {
					if slot[got[i-1]] >= slot[got[i]] {
						t.Fatalf("query %v: hits %d,%d at slots %d,%d, want ascending",
							q, got[i-1], got[i], slot[got[i-1]], slot[got[i]])
					}
				}
				if want := tr.Search(q, nil); !sortedEqual(got, want) {
					t.Fatalf("query %v: packed %d hits, tree %d", q, len(got), len(want))
				}
			}
		})
	}
}

func TestPackedSearchCountsAccesses(t *testing.T) {
	rects := randRects(500, 11)
	_, p := packOf(t, rects)
	p.ResetAccesses()
	if p.Accesses() != 0 {
		t.Fatal("ResetAccesses did not zero counter")
	}
	p.Search(geom.NewRect(0, 0, 1, 1), nil)
	if p.Accesses() != int64(p.NumNodes()) {
		t.Fatalf("full-extent search touched %d nodes, want %d", p.Accesses(), p.NumNodes())
	}
}

// TestPackHilbertLeafOrder pins the read-optimized layout: within every leaf
// run, items ascend by Hilbert key of their rect (ties by id).
func TestPackHilbertLeafOrder(t *testing.T) {
	rects := clusteredRects(1200, 13)
	tr, p := packOf(t, rects)
	curveMBR := tr.root.mbr()
	if curveMBR.Area() <= 0 {
		curveMBR = curveMBR.Expand(1e-9)
	}
	curve := hilbert.MustNew(hilbert.MaxOrder, curveMBR)
	for n := 0; n < p.NumNodes(); n++ {
		if !p.leaf[n] {
			continue
		}
		s, c := int(p.start[n]), int(p.count[n])
		for i := s + 1; i < s+c; i++ {
			prev := geom.Rect{MinX: p.itemXMin[i-1], MinY: p.itemYMin[i-1], MaxX: p.itemXMax[i-1], MaxY: p.itemYMax[i-1]}
			cur := geom.Rect{MinX: p.itemXMin[i], MinY: p.itemYMin[i], MaxX: p.itemXMax[i], MaxY: p.itemYMax[i]}
			kp, kc := curve.RectIndex(prev), curve.RectIndex(cur)
			if kp > kc || (kp == kc && p.itemID[i-1] >= p.itemID[i]) {
				t.Fatalf("leaf %d: items %d,%d out of Hilbert order (keys %d,%d ids %d,%d)",
					n, i-1, i, kp, kc, p.itemID[i-1], p.itemID[i])
			}
		}
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

// BenchmarkPackedSearch is the executor's extension probe at the benchmark's
// multiway-window scale: every SP point searched in SPG's packed image.
func BenchmarkPackedSearch(b *testing.B) {
	queries := datagen.SP(0.2).Items
	tr, err := BulkLoadSTR(ItemsFromRects(datagen.SPG(0.2).Items))
	if err != nil {
		b.Fatal(err)
	}
	p := Pack(tr)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.Search(queries[i%len(queries)], buf[:0])
	}
}

// TestOverlayImageMirrorsPack holds every overlay shape the join oracle uses
// to the read surface beside the kernel: the image must answer Len, VisitItems
// (as a set) and Search exactly as a fresh Pack of the surviving items does,
// report its overlay's size, share the planes of the image it was derived from
// and leave that image as it was.
func TestOverlayImageMirrorsPack(t *testing.T) {
	queries := append(randRects(48, 10), latticeRects(16, 12)...)
	queries = append(queries, geom.NewRect(-1, -1, 2, 2), geom.NewRect(5, 5, 6, 6))
	for _, tc := range []struct {
		name  string
		rects []geom.Rect
		opts  []Option
	}{
		{"uniform", randRects(1500, 9), []Option{WithFanout(2, 8)}},
		{"wide-fanout", randRects(3000, 35), []Option{WithFanout(30, 100)}},
		{"single-leaf", randRects(5, 27), nil},
		{"empty", nil, nil},
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
					if got, ref := img.Search(q, nil), want.Search(q, nil); !sortedEqual(got, ref) {
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
