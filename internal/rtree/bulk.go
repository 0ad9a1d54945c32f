package rtree

import (
	"math"
	"sort"

	"spatialsel/internal/geom"
)

// Item pairs a rectangle with its caller-assigned ID for bulk loading.
type Item struct {
	Rect geom.Rect
	ID   int
}

// ItemsFromRects assigns sequential IDs (the slice indices) to rects.
func ItemsFromRects(rects []geom.Rect) []Item {
	items := make([]Item, len(rects))
	for i, r := range rects {
		items[i] = Item{Rect: r, ID: i}
	}
	return items
}

// BulkLoadSTR builds a tree over items using Sort-Tile-Recursive packing:
// sort by center x, cut into vertical slabs of √(n/cap) tiles, sort each slab
// by center y, and pack leaves; repeat upward. STR yields near-100% fill and
// well-shaped nodes for static data.
func BulkLoadSTR(items []Item, opts ...Option) (*Tree, error) {
	t := &Tree{maxEntries: DefaultMaxEntries}
	for _, o := range opts {
		if err := o(t); err != nil {
			return nil, err
		}
	}
	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: it.Rect, id: it.ID}
	}
	strOrder(entries, t.maxEntries)
	t.buildPacked(entries)
	return t, nil
}

// TreeOf returns the tree cut from p's live items, in slot order — the
// planes' Hilbert order, then the delta's items — at the default fanout:
// leaves of DefaultMaxEntries consecutive items, parents of DefaultMaxEntries
// consecutive nodes. Nothing is sorted, so the cut is one pass over the items
// and one per level; the tree holds exactly the items p.VisitItems reports.
// The cut waits for the first call that reads nodes (Search, Height,
// LevelStats, RootMBR, ComputeStats, JoinFuncContext, Pack) and runs once,
// however many goroutines make that call; until then the tree holds p and
// nothing more, and Len answers from p. p must not change, which a Packed
// never does.
func TreeOf(p *Packed) *Tree {
	return &Tree{maxEntries: DefaultMaxEntries, size: p.Len(), image: p}
}

// strOrder implements the STR tile ordering.
func strOrder(entries []entry, nodeCap int) {
	n := len(entries)
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].rect.Center().X < entries[j].rect.Center().X
	})
	leaves := (n + nodeCap - 1) / nodeCap
	slabs := int(math.Ceil(math.Sqrt(float64(leaves))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := slabs * nodeCap
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		slab := entries[start:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].rect.Center().Y < slab[j].rect.Center().Y
		})
	}
}

// buildPacked packs entries, in their order, into leaves and repeats upward
// until a single root remains; no entries leave the tree empty. The nodes keep
// slices of entries and of each level's fresh parent entries, so the caller
// must not reuse entries.
func (t *Tree) buildPacked(entries []entry) {
	t.size = len(entries)
	if t.size == 0 {
		return
	}
	level, isLeaf := entries, true
	t.height = 0
	for {
		t.height++
		nodes := packLevel(level, t.maxEntries, isLeaf)
		if len(nodes) == 1 {
			t.root = nodes[0]
			return
		}
		next := make([]entry, len(nodes))
		for i, n := range nodes {
			next[i] = entry{rect: n.mbr(), child: n}
		}
		level = next
		isLeaf = false
	}
}

// packLevel chunks ordered entries into nodes of up to cap entries, ensuring
// the final node is not left with fewer than 2 entries (it borrows from its
// neighbour if it would be). A node's entries are a capacity-capped slice of
// entries, not a copy.
func packLevel(entries []entry, nodeCap int, leaf bool) []*node {
	n := len(entries)
	count := (n + nodeCap - 1) / nodeCap
	nodes := make([]*node, 0, count)
	for start := 0; start < n; start += nodeCap {
		end := start + nodeCap
		if end > n {
			end = n
		}
		// Avoid a final single-entry node by borrowing one from the previous
		// chunk (only matters for non-root levels; harmless otherwise).
		if end-start == 1 && len(nodes) > 0 {
			prev := nodes[len(nodes)-1]
			last := prev.entries[len(prev.entries)-1]
			prev.entries = prev.entries[:len(prev.entries)-1]
			nodes = append(nodes, &node{leaf: leaf, entries: []entry{last, entries[start]}})
			continue
		}
		nodes = append(nodes, &node{leaf: leaf, entries: entries[start:end:end]})
	}
	return nodes
}
