package rtree

import (
	"context"
	"slices"
	"testing"

	"spatialsel/internal/geom"
)

// fuzzJoinInput decodes a fuzz input into a join: a header byte choosing the
// windows, then one 9-byte record per rectangle — four coordinates of two
// bytes each, tile and 1/256 of a tile, and a flag byte saying which side the
// rectangle is on, whether it sits in the planes or the delta, and whether it
// is deleted. A zero low byte puts a coordinate exactly on a tile line; tile
// bytes 64 to 191 are the unit square's, so half the values clamp into the
// border tiles. At most 96 rectangles are read: the oracle is quadratic.
type fuzzJoinInput struct {
	rects      [2][]geom.Rect
	inDelta    [2][]bool
	dead       [2][]bool
	winA, winB *geom.Rect
}

func decodeFuzzJoin(data []byte) fuzzJoinInput {
	var in fuzzJoinInput
	if len(data) == 0 {
		return in
	}
	coord := func(tile, frac byte) float64 {
		return (float64(tile) - 64 + float64(frac)/256) / tileDim
	}
	header, data := data[0], data[1:]
	var all []geom.Rect
	for ; len(data) >= 9 && len(all) < 96; data = data[9:] {
		r := geom.NewRect(coord(data[0], data[1]), coord(data[2], data[3]), coord(data[4], data[5]), coord(data[6], data[7]))
		all = append(all, r)
		side := int(data[8] & 1)
		in.rects[side] = append(in.rects[side], r)
		in.inDelta[side] = append(in.inDelta[side], data[8]&2 != 0)
		in.dead[side] = append(in.dead[side], data[8]&4 != 0)
	}
	// Windows are rectangles of the input, so their edges meet items' edges.
	if header&1 != 0 && len(all) > 0 {
		in.winA = &all[int(header>>2)%len(all)]
	}
	if header&2 != 0 && len(all) > 0 {
		in.winB = &all[int(header>>5)%len(all)]
	}
	return in
}

// image builds one side the way the ingest front would: planes, tombstones
// over them, and a delta holding the live additions.
func (in fuzzJoinInput) image(t *testing.T, side int) *Packed {
	var base, added []Item
	for id, r := range in.rects[side] {
		switch {
		case !in.inDelta[side][id]:
			base = append(base, Item{Rect: r, ID: id})
		case !in.dead[side][id]:
			added = append(added, Item{Rect: r, ID: id})
		}
	}
	pack := func(items []Item) *Packed {
		tr, err := BulkLoadSTR(items, WithFanout(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		return Pack(tr)
	}
	img := pack(base)
	dead := make([]uint64, (len(base)+63)/64)
	slot := 0
	img.VisitItems(func(id int, _ geom.Rect) {
		if in.dead[side][id] {
			dead[slot>>6] |= 1 << (uint(slot) & 63)
		}
		slot++
	})
	return img.WithOverlay(dead, pack(added))
}

// FuzzTileJoin holds the tile sweep to brute force on inputs aimed at the
// grid: the kernel's pairs, serial and pooled, are exactly the intersecting
// live pairs that meet their windows — each once — in one order. The probe
// reads the same runs, so the same images hold it too: side b's image searched
// with every side-a rectangle and both windows returns exactly the live
// b-items meeting the query, no id twice.
func FuzzTileJoin(f *testing.F) {
	rec := func(x0, y0, x1, y1 [2]byte, flags byte) []byte {
		return []byte{x0[0], x0[1], y0[0], y0[1], x1[0], x1[1], y1[0], y1[1], flags}
	}
	cat := func(header byte, recs ...[]byte) []byte {
		return append([]byte{header}, slices.Concat(recs...)...)
	}
	// Two squares sharing only the tile corner (1/2, 1/2), and a point on it.
	f.Add(cat(0,
		rec([2]byte{128, 0}, [2]byte{128, 0}, [2]byte{160, 0}, [2]byte{160, 0}, 0),
		rec([2]byte{96, 0}, [2]byte{96, 0}, [2]byte{128, 0}, [2]byte{128, 0}, 1),
		rec([2]byte{128, 0}, [2]byte{128, 0}, [2]byte{128, 0}, [2]byte{128, 0}, 1)))
	// The whole square against a segment along a tile line and a delta item
	// straddling it, the a-side windowed by the segment.
	f.Add(cat(1|1<<2,
		rec([2]byte{64, 0}, [2]byte{64, 0}, [2]byte{192, 0}, [2]byte{192, 0}, 0),
		rec([2]byte{64, 0}, [2]byte{100, 0}, [2]byte{192, 0}, [2]byte{100, 0}, 1),
		rec([2]byte{80, 128}, [2]byte{99, 255}, [2]byte{80, 129}, [2]byte{100, 1}, 3)))
	// Outside the unit square on every side, a tombstone and a delta item.
	f.Add(cat(3,
		rec([2]byte{0, 0}, [2]byte{0, 7}, [2]byte{255, 255}, [2]byte{65, 0}, 0),
		rec([2]byte{230, 0}, [2]byte{0, 0}, [2]byte{231, 0}, [2]byte{255, 0}, 1),
		rec([2]byte{10, 10}, [2]byte{0, 9}, [2]byte{20, 20}, [2]byte{200, 0}, 4),
		rec([2]byte{10, 10}, [2]byte{0, 9}, [2]byte{20, 20}, [2]byte{200, 0}, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFuzzJoin(data)
		ia, ib := in.image(t, 0), in.image(t, 1)
		var want []JoinPair
		for a, ra := range in.rects[0] {
			for b, rb := range in.rects[1] {
				if ra.Intersects(rb) && !in.dead[0][a] && !in.dead[1][b] &&
					(in.winA == nil || ra.Intersects(*in.winA)) && (in.winB == nil || rb.Intersects(*in.winB)) {
					want = append(want, JoinPair{A: a, B: b})
				}
			}
		}
		queries := slices.Clone(in.rects[0])
		for _, win := range []*geom.Rect{in.winA, in.winB} {
			if win != nil {
				queries = append(queries, *win)
			}
		}
		for _, q := range queries {
			var hits []int
			for b, rb := range in.rects[1] {
				if rb.Intersects(q) && !in.dead[1][b] {
					hits = append(hits, b)
				}
			}
			// Equal lengths and equal sorted sequences: a duplicate fails.
			if got := ib.Search(q, nil); !sortedEqual(got, hits) {
				t.Fatalf("Search(%v) returned %v, brute force over the live items %v (b=%v)", q, got, hits, in.rects[1])
			}
		}
		var serial []JoinPair
		for _, workers := range []int{1, 3} {
			batches, err := PackedJoinBatches(context.Background(), ia, ib, workers, in.winA, in.winB)
			if err != nil {
				t.Fatal(err)
			}
			got := pairsOf(batches)
			if workers == 1 {
				serial = slices.Clone(got)
			} else if !slices.Equal(got, serial) {
				t.Fatalf("workers=%d: emission order differs from the serial run's", workers)
			}
			// Equal lengths and equal sorted sequences: every wanted pair
			// exactly once, nothing else.
			if !pairsEqual(got, want) {
				t.Fatalf("workers=%d: kernel returned %d pairs, brute force %d (a=%v b=%v winA=%v winB=%v)",
					workers, len(got), len(want), in.rects[0], in.rects[1], in.winA, in.winB)
			}
		}
	})
}
