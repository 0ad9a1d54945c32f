package rtree

import (
	"cmp"
	"math/bits"
	"slices"

	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
	"spatialsel/internal/obs"
)

// mPackedBuildItems counts packed item slots written. Registering a table and
// folding one pack the whole table; a publish packs only its overlay's delta
// items, so on the write path it grows with the batches, not the table.
var mPackedBuildItems = obs.Default.Counter("rtree_packed_build_items_total",
	"Item slots written by packed snapshot image builds.")

// Packed is a read-optimized, immutable image of a table's items for published
// snapshots — what the paper draws: the item MBRs in four parallel []float64
// planes (one per coordinate) beside their ids, laid out in ascending Hilbert
// order of their centers, and one grid over them (tileIndex) that the join
// kernel, its price (JoinWork) and Search read. It is a function of its items
// alone (PackItems): no tree is built or walked to make one.
//
// A Packed is safe for concurrent readers; it is never mutated after PackItems
// returns. The write side is the ingest front's overlay, which derives the
// next image from this one (WithOverlay) rather than writing to it.
//
// An image may carry an overlay (WithOverlay): tombstones over its own item
// slots and a second, small image of items added since it was packed. The
// planes are then shared with the image it was derived from, so publishing a
// batch costs the overlay, not the table. Search, VisitItems, Len and the join
// kernel see the overlaid item set; RootMBR keeps describing the planes.
type Packed struct {
	// Item planes: entry MBRs and ids, indexed by item slot.
	itemXMin []float64
	itemYMin []float64
	itemXMax []float64
	itemYMax []float64
	itemID   []int

	// tiles indexes the item planes by grid tile, for the join kernel and for
	// Search (nil on an empty image).
	tiles *tileIndex

	size    int
	rootMBR geom.Rect // the planes' bounding box

	// The overlay, both nil on a freshly packed image. dead holds one bit per
	// item slot (bit s&63 of word s>>6), set for nDead slots whose item is
	// deleted; delta holds the items added since, and has no overlay itself.
	dead  []uint64
	nDead int
	delta *Packed
}

// WithOverlay returns an image of p's item slots minus the ones whose bit is
// set in dead, plus delta's items. It shares p's planes and ignores any
// overlay p itself carries, so deriving from a derived image does not stack.
// dead is indexed by item slot — the position at which VisitItems on an
// overlay-free p reports the item — and has (slots+63)/64 words; nil means no
// tombstones, a nil delta no additions. The result keeps both, so the caller
// must not write to dead afterwards. It panics on a bitmap of the wrong length
// and on a delta that carries an overlay: only a caller's bug produces either.
func (p *Packed) WithOverlay(dead []uint64, delta *Packed) *Packed {
	if dead != nil && len(dead) != (len(p.itemID)+63)/64 {
		panic("rtree: WithOverlay: tombstone bitmap does not match the image's item slots")
	}
	if delta != nil && (delta.dead != nil || delta.delta != nil) {
		panic("rtree: WithOverlay: delta image carries an overlay")
	}
	nDead := 0
	for _, w := range dead {
		nDead += bits.OnesCount64(w)
	}
	if nDead == 0 {
		dead = nil
	}
	if delta != nil && delta.size == 0 {
		delta = nil
	}
	q := &Packed{
		itemXMin: p.itemXMin, itemYMin: p.itemYMin, itemXMax: p.itemXMax, itemYMax: p.itemYMax,
		itemID: p.itemID,
		tiles:  p.tiles,
		size:   len(p.itemID) - nDead, rootMBR: p.rootMBR,
		dead: dead, nDead: nDead, delta: delta,
	}
	if delta != nil {
		q.size += delta.size
	}
	return q
}

// Overlay reports what the image carries on top of its planes: the items in
// its delta and the tombstoned slots. Both are zero on a freshly packed image.
func (p *Packed) Overlay() (deltaItems, tombstones int) {
	if p.delta != nil {
		deltaItems = p.delta.size
	}
	return deltaItems, p.nDead
}

// SharesPlanes reports whether p and q are views of the same packed planes —
// images derived from one PackItems by WithOverlay, or the same image.
func (p *Packed) SharesPlanes(q *Packed) bool {
	return len(p.itemID) == len(q.itemID) && (len(p.itemID) == 0 || &p.itemID[0] == &q.itemID[0])
}

// slotDead reports whether item slot i is tombstoned in dead.
func slotDead(dead []uint64, i int) bool { return dead[i>>6]>>(uint(i)&63)&1 != 0 }

// PackItems builds the packed image of items: the planes in ascending Hilbert
// order of the items' centers — a hilbert.MaxOrder curve over their bounding
// box, given a hair of slack when that has no area, ties broken by id, so
// neighbours on the curve are neighbours in memory — and the tile index over
// them. With distinct ids the image is a function of the items as a set, not
// of the order they come in. Cost is one pass for the bounding box, one for the
// keys, a sort and the index; items is only read. No items pack to an empty
// image.
func PackItems(items []Item) *Packed {
	n := len(items)
	p := &Packed{size: n}
	if n > 0 {
		p.rootMBR = items[0].Rect
		for i := range items[1:] {
			p.rootMBR = p.rootMBR.Union(items[i+1].Rect)
		}
		curveMBR := p.rootMBR
		if curveMBR.Area() <= 0 {
			curveMBR = curveMBR.Expand(1e-9)
		}
		curve := hilbert.MustNew(hilbert.MaxOrder, curveMBR)
		// A MaxOrder key is below 4^16 = 2^32 and a position below 2^28
		// (buildTileIndex's cap), so one word holds both and a native sort
		// orders by key; runs of equal keys are then put in id order.
		order := make([]uint64, n)
		for i := range items {
			order[i] = curve.RectIndex(items[i].Rect)<<32 | uint64(i)
		}
		slices.Sort(order)
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && order[hi]>>32 == order[lo]>>32 {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(order[lo:hi], func(a, b uint64) int {
					return cmp.Compare(items[uint32(a)].ID, items[uint32(b)].ID)
				})
			}
			lo = hi
		}
		p.itemXMin, p.itemYMin = make([]float64, n), make([]float64, n)
		p.itemXMax, p.itemYMax = make([]float64, n), make([]float64, n)
		p.itemID = make([]int, n)
		for s, o := range order {
			it := &items[uint32(o)]
			p.itemXMin[s], p.itemYMin[s], p.itemXMax[s], p.itemYMax[s] = it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY
			p.itemID[s] = it.ID
		}
		p.tiles = buildTileIndex(p.itemXMin, p.itemYMin, p.itemXMax, p.itemYMax)
	}
	mPackedBuildItems.Add(uint64(n))
	return p
}

// Pack is PackItems over t's items, read off its nodes, so it cuts a TreeOf
// tree nothing has read yet. Nothing in the repository's own packages packs a
// tree; the adapter stays only because the benchmark's layer replay (bench/)
// still times it beside an STR load, and goes when ROADMAP item 1 retires that
// replay.
func Pack(t *Tree) *Packed {
	root := t.nodes()
	items := make([]Item, 0, t.size)
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if n.leaf {
				items = append(items, Item{Rect: e.rect, ID: e.id})
			} else {
				walk(e.child)
			}
		}
	}
	if root != nil {
		walk(root)
	}
	return PackItems(items)
}

// Len returns the number of stored items: with an overlay, the live slots
// plus the delta's items.
func (p *Packed) Len() int { return p.size }

// RootMBR returns the bounding box of the planes' items, the zero Rect when
// there are none.
func (p *Packed) RootMBR() geom.Rect { return p.rootMBR }

// VisitItems calls fn for every stored item: the planes' live items in slot
// order — on an overlay-free image the i-th call is slot i, the index
// WithOverlay's bitmap uses — then the delta's. Consistency checks compare an
// image against the index it claims to mirror through it, and the ingest fold
// reads the id-to-slot table off it, without reaching into the planes.
func (p *Packed) VisitItems(fn func(id int, r geom.Rect)) {
	for i, id := range p.itemID {
		if p.dead != nil && slotDead(p.dead, i) {
			continue
		}
		fn(id, geom.Rect{MinX: p.itemXMin[i], MinY: p.itemYMin[i], MaxX: p.itemXMax[i], MaxY: p.itemYMax[i]})
	}
	if p.delta != nil {
		p.delta.VisitItems(fn)
	}
}

// Search appends the IDs of all items intersecting q to out, each once — the
// executor's index probe for extension steps. It reads the tile index the join
// kernel sweeps: for every tile q's range meets, the run is scanned while
// xmin ≤ q.MaxX (runs are sorted by xmin) and the other three sides tested
// through the slot. An item replicated into several of those tiles is reported
// from one of them only, by the kernel's reference-point rule with q's own
// range supplying the second pair of start bits: the tile where the item
// starts or q's range starts, in x and in y — integers only, so the test
// cannot disagree with the tile assignment on a boundary or in a clamped
// border tile. The wide run, whose items are stored once, is scanned once.
//
// Order: the planes' hits, then the delta's; within an image tile by tile,
// row-major, within a tile by (xmin, slot), the wide run's hits last. It is a
// function of the image and q alone.
//
// Cost follows the entries of the tiles q meets: right for the executor's
// probes — item rectangles, one to four tiles — and 1.5–1.9× a tree descent's
// for window-sized queries, which nothing issues (DESIGN.md "Probes").
func (p *Packed) Search(q geom.Rect, out []int) []int {
	out = p.searchPlanes(q, out)
	if p.delta != nil {
		out = p.delta.searchPlanes(q, out)
	}
	return out
}

// searchPlanes is Search over the image's own planes, tombstones skipped.
func (p *Packed) searchPlanes(q geom.Rect, out []int) []int {
	ix := p.tiles
	if ix == nil {
		return out
	}
	x0, x1, y0, y1 := tileOf(q.MinX), tileOf(q.MaxX), tileOf(q.MinY), tileOf(q.MaxY)
	for ty := y0; ty <= y1; ty++ {
		for tx := x0; tx <= x1; tx++ {
			var have uint32
			if tx == x0 {
				have |= startsX
			}
			if ty == y0 {
				have |= startsY
			}
			keys, refs := ix.run(ty*tileDim + tx)
			out = p.scanRun(q, keys, refs, have, out)
		}
	}
	keys, refs := ix.run(numTiles)
	return p.scanRun(q, keys, refs, startsX|startsY, out)
}

// scanRun appends the live items of one run that intersect q and whose start
// bits, ORed with have, are both set.
func (p *Packed) scanRun(q geom.Rect, keys []float64, refs []uint32, have uint32, out []int) []int {
	for i, xmin := range keys {
		if xmin > q.MaxX {
			break
		}
		r := refs[i] | have
		if r&(startsX|startsY) != startsX|startsY {
			continue
		}
		s := int(r >> refShift)
		if p.itemXMax[s] < q.MinX || p.itemYMin[s] > q.MaxY || p.itemYMax[s] < q.MinY ||
			p.dead != nil && slotDead(p.dead, s) {
			continue
		}
		out = append(out, p.itemID[s])
	}
	return out
}
