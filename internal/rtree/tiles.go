package rtree

import (
	"cmp"
	"math/bits"
	"slices"
)

// tileDim is the number of tiles per side of the grid the join kernel sweeps
// and Search probes:
// the 2^7 × 2^7 grid of the unit square the default statistics level draws
// (PAPER.md §3.2). It is a constant of the image format, not a setting: two
// images join tile by tile only because they were cut on the same lines.
// EXPERIMENTS.md "Tile sweep" has 64 and 256 per side beside it.
const (
	tileDim  = 128
	numTiles = tileDim * tileDim
)

// tileOf returns the tile coordinate of v along one axis: ⌊v·tileDim⌋ clamped
// into the grid, so everything left of (below) the unit square lands in the
// first tile and everything right of (above) it in the last, like
// histogram.Grid.CellOf. It is monotone in v — the property every argument
// about the index rests on — and total: NaN goes to tile 0.
func tileOf(v float64) int {
	f := v * tileDim
	if !(f > 0) {
		return 0
	}
	if f >= tileDim {
		return tileDim - 1
	}
	return int(f)
}

// Reference bits of a tile entry: the item's tile range starts in this tile's
// column, and in this tile's row.
const (
	startsX  = 2
	startsY  = 1
	refShift = 2
)

// tileIndex is an image's one spatial index, read by the join kernel and by
// Search: for every tile the run of items meeting it, sorted by xmin. An entry
// is a sort key — the item's xmin, contiguous so the sweep's merge reads
// nothing else — and a reference: the item's slot in the image's item planes
// shifted left by refShift, plus the two start bits. The other three
// coordinates and the id are read through the slot: the planes are in Hilbert
// order, so the slots of one tile's run are neighbours in memory, and an entry
// costs 12 bytes per tile the item meets instead of a second copy of the
// rectangle.
//
// Run t = ty·tileDim + tx occupies [off[t], off[t+1]) of keys and refs; run
// numTiles, the last, is the wide run: the items that meet so many tiles that
// replicating them would pass the index's size budget (none, on data whose
// items are small against the extent). They are stored once, with no start
// bits; the kernel sweeps them against every tile of the other image, and a
// probe scans them once.
type tileIndex struct {
	off  []uint32
	keys []float64
	refs []uint32
	// spanX and spanY are the largest number of tile columns and rows any one
	// item's range extends past its first: a window prunes tiles by them.
	spanX, spanY int
}

// run returns run t's entries.
func (ix *tileIndex) run(t int) ([]float64, []uint32) {
	lo, hi := ix.off[t], ix.off[t+1]
	return ix.keys[lo:hi:hi], ix.refs[lo:hi:hi]
}

// wide returns the wide run's references.
func (ix *tileIndex) wide() []uint32 {
	_, refs := ix.run(numTiles)
	return refs
}

// tileEntry is one entry while a run is being sorted.
type tileEntry struct {
	key float64
	ref uint32
}

// buildTileIndex indexes the items of the given planes: a pass that sizes the
// runs, a pass that fills them in slot order, and a sort of every run by
// (xmin, slot) — so the index, and with it the kernel's emission order, is a
// function of the planes alone. The entries are written once into their final
// arrays; the only scratch is one buffer the length of the longest run.
func buildTileIndex(xmin, ymin, xmax, ymax []float64) *tileIndex {
	n := len(xmin)
	if n >= 1<<28 {
		// Slots must fit a reference and 9n entries a uint32 offset.
		panic("rtree: Pack: too many items for 32-bit tile references")
	}
	ix := &tileIndex{off: make([]uint32, numTiles+2)}
	span := func(i int) (x0, x1, y0, y1 int) {
		return tileOf(xmin[i]), tileOf(xmax[i]), tileOf(ymin[i]), tileOf(ymax[i])
	}

	// Size the runs: off[t+1] counts run t, then becomes its end. An item
	// meeting 2^(wideLen-1) tiles or more goes to the wide run; at first none
	// does, and only if the entries then pass the budget — 32 per item on
	// average, plus one whole grid — is the largest wideLen that fits it worked
	// out from the per-size totals and the runs sized again. Real data is
	// nowhere near the budget (×1.0–3.2 entries per item); a table of
	// extent-sized rectangles, 16 384 entries apiece otherwise, is.
	wideLen := bits.UintSize
	for {
		var entriesByLen [bits.UintSize + 1]int
		for i := 0; i < n; i++ {
			x0, x1, y0, y1 := span(i)
			ix.spanX, ix.spanY = max(ix.spanX, x1-x0), max(ix.spanY, y1-y0)
			tiles := (x1 - x0 + 1) * (y1 - y0 + 1)
			entriesByLen[bits.Len(uint(tiles))] += tiles
			if bits.Len(uint(tiles)) >= wideLen {
				ix.off[numTiles+1]++
				continue
			}
			for ty := y0; ty <= y1; ty++ {
				for tx := x0; tx <= x1; tx++ {
					ix.off[ty*tileDim+tx+1]++
				}
			}
		}
		fits, entries := 0, 0
		for budget := 32*n + numTiles; fits < wideLen && entries+entriesByLen[fits] <= budget; fits++ {
			entries += entriesByLen[fits]
		}
		if fits == wideLen {
			break
		}
		wideLen = fits
		clear(ix.off)
	}
	for t := 0; t <= numTiles; t++ {
		ix.off[t+1] += ix.off[t]
	}
	ix.keys = make([]float64, ix.off[numTiles+1])
	ix.refs = make([]uint32, ix.off[numTiles+1])

	// Fill, advancing off[t] through run t; afterwards off[t] is run t's end,
	// which is run t+1's start, and one shift puts the starts back.
	put := func(t int, key float64, ref uint32) {
		at := ix.off[t]
		ix.keys[at], ix.refs[at] = key, ref
		ix.off[t] = at + 1
	}
	for i := 0; i < n; i++ {
		x0, x1, y0, y1 := span(i)
		ref := uint32(i) << refShift
		if bits.Len(uint((x1-x0+1)*(y1-y0+1))) >= wideLen {
			put(numTiles, xmin[i], ref)
			continue
		}
		for ty := y0; ty <= y1; ty++ {
			rowRef := ref
			if ty == y0 {
				rowRef |= startsY
			}
			put(ty*tileDim+x0, xmin[i], rowRef|startsX)
			for tx := x0 + 1; tx <= x1; tx++ {
				put(ty*tileDim+tx, xmin[i], rowRef)
			}
		}
	}
	copy(ix.off[1:], ix.off[:numTiles+1])
	ix.off[0] = 0

	var scratch []tileEntry
	for t := 0; t <= numTiles; t++ {
		keys, refs := ix.run(t)
		if len(keys) < 2 {
			continue
		}
		scratch = scratch[:0]
		for i, k := range keys {
			scratch = append(scratch, tileEntry{k, refs[i]})
		}
		slices.SortFunc(scratch, func(a, b tileEntry) int {
			if a.key < b.key {
				return -1
			}
			if a.key > b.key {
				return 1
			}
			return cmp.Compare(a.ref, b.ref)
		})
		for i, e := range scratch {
			keys[i], refs[i] = e.key, e.ref
		}
	}
	return ix
}
