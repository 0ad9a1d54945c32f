package rtree

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
	"spatialsel/internal/obs"
)

// Packed build counters. Registering a table and folding one pack the whole
// table (an STR bulk load); a publish packs only its overlay's delta tree, so
// on the write path the items counter grows with the batches, not the table.
var (
	mPackedBuilds = obs.Default.Counter("rtree_packed_builds_total",
		"Packed images built: a table's base at registration and at each fold, its delta at each publish.")
	mPackedBuildSeconds = obs.Default.FloatCounter("rtree_packed_build_seconds_total",
		"Seconds spent building packed snapshot images.")
	mPackedBuildItems = obs.Default.Counter("rtree_packed_build_items_total",
		"Item slots written by packed snapshot image builds.")
)

// Packed is a read-optimized, immutable image of a table's items for published
// snapshots — what the paper draws: the item MBRs in four parallel []float64
// planes (one per coordinate) beside their ids, laid out leaf by leaf of the
// source tree and within a leaf in ascending Hilbert order of their centers,
// and one grid over them (tileIndex) that both the join kernel and Search read.
// Of the R-tree it was packed from an image keeps no topology, only what the
// cost model asks for: the per-level node statistics, the height, the node
// count and the root MBR, recorded while Pack walks the tree.
//
// A Packed is safe for concurrent readers; it is never mutated after Pack
// returns. The write side is the ingest front's overlay, which derives the
// next image from this one (WithOverlay) rather than writing to it.
//
// An image may carry an overlay (WithOverlay): tombstones over its own item
// slots and a second, small image of items added since it was packed. The
// planes are then shared with the image it was derived from, so publishing a
// batch costs the overlay, not the table. Search, VisitItems, Len and the join
// kernel see the overlaid item set; LevelStats, Height, NumNodes and RootMBR
// keep describing the tree the planes were packed from.
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

	size int
	// What Pack recorded of the source tree while visiting every node, so cost
	// models read it instead of walking a tree: the height, the node count, the
	// root's MBR and the per-level node statistics.
	height  int
	nodes   int
	rootMBR geom.Rect
	levels  []LevelStat

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
		size:   len(p.itemID) - nDead, height: p.height, nodes: p.nodes, rootMBR: p.rootMBR, levels: p.levels,
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
// images derived from one Pack by WithOverlay, or the same image.
func (p *Packed) SharesPlanes(q *Packed) bool {
	return len(p.itemID) == len(q.itemID) && (len(p.itemID) == 0 || &p.itemID[0] == &q.itemID[0])
}

// slotDead reports whether item slot i is tombstoned in dead.
func slotDead(dead []uint64, i int) bool { return dead[i>>6]>>(uint(i)&63)&1 != 0 }

// Pack builds the packed image of t. Cost is one full scan of the tree —
// O(n) like Clone — plus a per-leaf Hilbert sort of its entries and the tile
// index; the source tree is only read. An empty tree packs to an empty image.
func Pack(t *Tree) *Packed {
	startTime := time.Now()
	p := &Packed{size: t.size, height: t.height, levels: make([]LevelStat, t.height)}
	if t.root == nil {
		mPackedBuilds.Inc()
		mPackedBuildSeconds.Add(time.Since(startTime).Seconds())
		return p
	}

	// Hilbert curve over the root MBR orders each leaf's entries; degenerate
	// extents get a hair of slack exactly like the bulk loader.
	p.rootMBR = t.root.mbr()
	curveMBR := p.rootMBR
	if curveMBR.Area() <= 0 {
		curveMBR = curveMBR.Expand(1e-9)
	}
	curve := hilbert.MustNew(hilbert.MaxOrder, curveMBR)

	// The item planes' size is known, and they are most of the image: sized
	// once, they are not grown and copied five times over on the way up.
	p.itemXMin = make([]float64, 0, t.size)
	p.itemYMin = make([]float64, 0, t.size)
	p.itemXMax = make([]float64, 0, t.size)
	p.itemYMax = make([]float64, 0, t.size)
	p.itemID = make([]int, 0, t.size)
	type keyed struct {
		key uint64
		e   *entry
	}
	var order []keyed
	// Depth-first, children left to right: a level's nodes arrive in the order
	// Tree.LevelStats sums them in, and the leaves — all on the last level —
	// in the order their items take slots.
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		p.nodes++
		p.levels[depth].add(n.mbr())
		if !n.leaf {
			for i := range n.entries {
				walk(n.entries[i].child, depth+1)
			}
			return
		}
		// Lay the leaf's entries out in ascending Hilbert order of their
		// centers: neighbours on the curve are neighbours in memory.
		order = order[:0]
		for i := range n.entries {
			order = append(order, keyed{curve.RectIndex(n.entries[i].rect), &n.entries[i]})
		}
		slices.SortFunc(order, func(a, b keyed) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.e.id, b.e.id)
		})
		for _, o := range order {
			e := o.e
			p.itemXMin = append(p.itemXMin, e.rect.MinX)
			p.itemYMin = append(p.itemYMin, e.rect.MinY)
			p.itemXMax = append(p.itemXMax, e.rect.MaxX)
			p.itemYMax = append(p.itemYMax, e.rect.MaxY)
			p.itemID = append(p.itemID, e.id)
		}
	}
	walk(t.root, 0)
	averageLevels(p.levels)
	p.tiles = buildTileIndex(p.itemXMin, p.itemYMin, p.itemXMax, p.itemYMax)
	mPackedBuilds.Inc()
	mPackedBuildItems.Add(uint64(len(p.itemID)))
	mPackedBuildSeconds.Add(time.Since(startTime).Seconds())
	return p
}

// Len returns the number of stored items: with an overlay, the live slots
// plus the delta's items.
func (p *Packed) Len() int { return p.size }

// Height returns the number of levels of the source tree (0 when empty).
func (p *Packed) Height() int { return p.height }

// NumNodes returns the number of nodes of the source tree.
func (p *Packed) NumNodes() int { return p.nodes }

// LevelStats returns the source tree's Tree.LevelStats as recorded by Pack:
// one entry per level, root first, empty for an empty image. The slice is
// shared with the image and must not be modified.
func (p *Packed) LevelStats() []LevelStat { return p.levels }

// RootMBR returns the source tree's root MBR — the bounding box of the planes'
// items — and the zero Rect when empty.
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
