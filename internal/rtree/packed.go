package rtree

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
	"spatialsel/internal/obs"
)

// Packed build counters: snapshot publication packs a tree per generation
// bump, so build cost is a serving-path number worth watching.
var (
	mPackedBuilds = obs.Default.Counter("rtree_packed_builds_total",
		"Packed snapshot images built from Guttman trees.")
	mPackedBuildSeconds = obs.Default.FloatCounter("rtree_packed_build_seconds_total",
		"Seconds spent building packed snapshot images.")
	mPackedBuildItems = obs.Default.Counter("rtree_packed_build_items_total",
		"Item slots written by packed snapshot image builds.")
)

// Packed is a read-optimized, immutable image of an R-tree for published
// snapshots: the same topology as the source tree, flattened into contiguous
// structure-of-arrays planes. Node MBRs live in four parallel []float64
// planes (one per coordinate), children are addressed by index instead of
// pointer, and leaf entries are laid out in contiguous per-leaf runs sorted
// in ascending Hilbert order of their centers, so the join kernel streams
// cache lines instead of chasing pointers.
//
// A Packed is safe for concurrent readers (including the access counter,
// which is atomic); it is never mutated after Pack returns. The mutable
// Guttman tree remains the write side.
//
// An image may carry an overlay (WithOverlay): tombstones over its own item
// slots and a second, small image of items added since it was packed. The
// planes are then shared with the image it was derived from, so publishing a
// batch costs the overlay, not the table. Search, VisitItems, Len and the join
// kernel see the overlaid item set; LevelStats, Height, NumNodes and RootMBR
// keep describing the planes.
type Packed struct {
	accesses int64 // atomic; first field keeps it 64-bit aligned

	// Node planes, indexed by node id in breadth-first order (root = 0), so
	// every node's children occupy one contiguous id run.
	nodeXMin []float64
	nodeYMin []float64
	nodeXMax []float64
	nodeYMax []float64
	// start/count address a node's children: for internal nodes a run of
	// node ids, for leaves a run of item slots.
	start []int32
	count []int32
	leaf  []bool

	// Item planes: leaf entry MBRs and ids, grouped per leaf.
	itemXMin []float64
	itemYMin []float64
	itemXMax []float64
	itemYMax []float64
	itemID   []int

	// Group planes: the bounding box of every aligned run of itemGroup item
	// slots (group g covers slots [g·itemGroup, (g+1)·itemGroup)). Because
	// leaf items sit in Hilbert order, consecutive slots are spatial
	// neighbours and group boxes stay tight, so the join kernel prunes a
	// whole group with one rect test before evaluating any item lanes —
	// an implicit extra tree level that costs four floats per eight items.
	// Groups are aligned to the global item array, not to leaf runs; a
	// boundary group spanning two leaves just has a slightly looser box.
	grpXMin []float64
	grpYMin []float64
	grpXMax []float64
	grpYMax []float64

	// tiles indexes the item planes by grid tile for the join kernel (nil on
	// an empty image); the node and group planes above serve Search, and
	// levels the cost model.
	tiles *tileIndex

	size   int
	height int
	// levels holds the per-level node statistics, recorded while Pack visits
	// every node, so cost models read them instead of walking a tree.
	levels []LevelStat

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
		nodeXMin: p.nodeXMin, nodeYMin: p.nodeYMin, nodeXMax: p.nodeXMax, nodeYMax: p.nodeYMax,
		start: p.start, count: p.count, leaf: p.leaf,
		itemXMin: p.itemXMin, itemYMin: p.itemYMin, itemXMax: p.itemXMax, itemYMax: p.itemYMax,
		itemID:  p.itemID,
		grpXMin: p.grpXMin, grpYMin: p.grpYMin, grpXMax: p.grpXMax, grpYMax: p.grpYMax,
		tiles: p.tiles,
		size:  len(p.itemID) - nDead, height: p.height, levels: p.levels,
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
	return len(p.itemID) == len(q.itemID) && len(p.leaf) == len(q.leaf) &&
		(len(p.leaf) == 0 || &p.leaf[0] == &q.leaf[0])
}

// slotDead reports whether item slot i is tombstoned in dead.
func slotDead(dead []uint64, i int) bool { return dead[i>>6]>>(uint(i)&63)&1 != 0 }

// deadLanes returns the tombstone bits of item group g, bit i for slot
// g·itemGroup+i: the byte of the bitmap the group's eight slots occupy.
func deadLanes(dead []uint64, g int) uint64 {
	return dead[g>>3] >> (uint(g&7) * itemGroup) & (1<<itemGroup - 1)
}

// Pack builds the packed image of t. Cost is one full scan of the tree —
// O(n) like Clone — plus a per-leaf Hilbert sort of its entries; the source
// tree is only read. An empty tree packs to an empty image.
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
	rootMBR := t.root.mbr()
	curveMBR := rootMBR
	if curveMBR.Area() <= 0 {
		curveMBR = curveMBR.Expand(1e-9)
	}
	curve := hilbert.MustNew(hilbert.MaxOrder, curveMBR)

	// Breadth-first layout: visiting node i appends its children as one
	// contiguous run, so start/count address them by id. A level ends where
	// the queue stood when its first node was visited, and its nodes arrive
	// left to right — the order Tree.LevelStats sums them in.
	queue := []*node{t.root}
	depth, levelEnd := 0, 1
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
	for qi := 0; qi < len(queue); qi++ {
		if qi == levelEnd {
			depth, levelEnd = depth+1, len(queue)
		}
		n := queue[qi]
		m := n.mbr()
		p.levels[depth].add(m)
		p.nodeXMin = append(p.nodeXMin, m.MinX)
		p.nodeYMin = append(p.nodeYMin, m.MinY)
		p.nodeXMax = append(p.nodeXMax, m.MaxX)
		p.nodeYMax = append(p.nodeYMax, m.MaxY)
		p.leaf = append(p.leaf, n.leaf)
		p.count = append(p.count, int32(len(n.entries)))
		if !n.leaf {
			p.start = append(p.start, int32(len(queue)))
			for i := range n.entries {
				queue = append(queue, n.entries[i].child)
			}
			continue
		}
		p.start = append(p.start, int32(len(p.itemID)))
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
	averageLevels(p.levels)
	ng := (len(p.itemID) + itemGroup - 1) / itemGroup
	p.grpXMin = make([]float64, ng)
	p.grpYMin = make([]float64, ng)
	p.grpXMax = make([]float64, ng)
	p.grpYMax = make([]float64, ng)
	for g := 0; g < ng; g++ {
		lo := g * itemGroup
		hi := lo + itemGroup
		if hi > len(p.itemID) {
			hi = len(p.itemID)
		}
		xm, ym, xM, yM := p.itemXMin[lo], p.itemYMin[lo], p.itemXMax[lo], p.itemYMax[lo]
		for i := lo + 1; i < hi; i++ {
			if p.itemXMin[i] < xm {
				xm = p.itemXMin[i]
			}
			if p.itemYMin[i] < ym {
				ym = p.itemYMin[i]
			}
			if p.itemXMax[i] > xM {
				xM = p.itemXMax[i]
			}
			if p.itemYMax[i] > yM {
				yM = p.itemYMax[i]
			}
		}
		p.grpXMin[g], p.grpYMin[g], p.grpXMax[g], p.grpYMax[g] = xm, ym, xM, yM
	}
	p.tiles = buildTileIndex(p.itemXMin, p.itemYMin, p.itemXMax, p.itemYMax)
	mPackedBuilds.Inc()
	mPackedBuildItems.Add(uint64(len(p.itemID)))
	mPackedBuildSeconds.Add(time.Since(startTime).Seconds())
	return p
}

// itemGroup is the group-plane granularity: one bounding box per 8 item
// slots, matching the kernel's 8-wide unrolled mask step.
const itemGroup = 8

// Len returns the number of stored items: with an overlay, the live slots
// plus the delta's items.
func (p *Packed) Len() int { return p.size }

// Height returns the number of levels of the planes (0 when empty).
func (p *Packed) Height() int { return p.height }

// NumNodes returns the number of nodes in the planes.
func (p *Packed) NumNodes() int { return len(p.leaf) }

// LevelStats returns the source tree's Tree.LevelStats as recorded by Pack:
// one entry per level, root first, empty for an empty image. The slice is
// shared with the image and must not be modified.
func (p *Packed) LevelStats() []LevelStat { return p.levels }

// RootMBR returns the root node's MBR (the zero Rect when empty).
func (p *Packed) RootMBR() geom.Rect {
	if len(p.leaf) == 0 {
		return geom.Rect{}
	}
	return geom.Rect{MinX: p.nodeXMin[0], MinY: p.nodeYMin[0], MaxX: p.nodeXMax[0], MaxY: p.nodeYMax[0]}
}

// Accesses returns the number of node touches since construction or the last
// ResetAccesses — the same page-read proxy the pointer tree counts.
func (p *Packed) Accesses() int64 { return atomic.LoadInt64(&p.accesses) }

// ResetAccesses zeroes the access counter.
func (p *Packed) ResetAccesses() { atomic.StoreInt64(&p.accesses, 0) }

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

// Search appends the IDs of all items intersecting q to out — the packed
// counterpart of Tree.Search and the executor's index probe for extension
// steps; the join kernels have their own traversals.
func (p *Packed) Search(q geom.Rect, out []int) []int {
	// Node touches are counted locally and added once: the counter shares a
	// cache line with the plane headers every concurrent probe reads.
	visits := 0
	if len(p.leaf) > 0 {
		out = p.search(0, q, out, &visits)
	}
	if p.delta != nil {
		out = p.delta.search(0, q, out, &visits)
	}
	atomic.AddInt64(&p.accesses, int64(visits))
	return out
}

// search is the probe traversal, evaluated like the join kernel's: an
// internal node's child run and a leaf's item run go through overlapMask, and
// a leaf walks its run at group granularity, skipping a whole group whose
// bounding box misses q. Set bits are taken lowest first, so ids come back in
// ascending slot order; tombstoned slots are masked out.
func (p *Packed) search(n int32, q geom.Rect, out []int, visits *int) []int {
	*visits++
	s, c := int(p.start[n]), int(p.count[n])
	if !p.leaf[n] {
		for base := 0; base < c; base += 64 {
			w := c - base
			if w > 64 {
				w = 64
			}
			m := overlapMask(q.MinX, q.MinY, q.MaxX, q.MaxY,
				p.nodeXMin, p.nodeYMin, p.nodeXMax, p.nodeYMax, s+base, w)
			for m != 0 {
				child := int32(s + base + bits.TrailingZeros64(m))
				m &= m - 1
				out = p.search(child, q, out, visits)
			}
		}
		return out
	}
	if c == 0 {
		return out
	}
	end := s + c
	for g := s / itemGroup; g <= (end-1)/itemGroup; g++ {
		if p.grpXMin[g] > q.MaxX || q.MinX > p.grpXMax[g] ||
			p.grpYMin[g] > q.MaxY || q.MinY > p.grpYMax[g] {
			continue
		}
		lo, hi := groupSpan(g, s, end)
		m := overlapMask(q.MinX, q.MinY, q.MaxX, q.MaxY,
			p.itemXMin, p.itemYMin, p.itemXMax, p.itemYMax, lo, hi-lo)
		if p.dead != nil {
			m &^= deadLanes(p.dead, g) >> uint(lo-g*itemGroup)
		}
		for m != 0 {
			out = append(out, p.itemID[lo+bits.TrailingZeros64(m)])
			m &= m - 1
		}
	}
	return out
}

// groupSpan returns the item slots of group g that lie inside the leaf run
// [s, end): groups align to the global item array, so a run's first and last
// group may straddle its neighbours.
func groupSpan(g, s, end int) (lo, hi int) {
	lo, hi = g*itemGroup, (g+1)*itemGroup
	if lo < s {
		lo = s
	}
	if hi > end {
		hi = end
	}
	return lo, hi
}
