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
	t, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	entries := make([]entry, len(items))
	for i, it := range items {
		entries[i] = entry{rect: it.Rect, id: it.ID}
	}
	t.buildPacked(entries)
	t.size = len(items)
	return t, nil
}

// BulkLoadInsert builds a tree by repeated insertion — the slow path the
// paper's "R-trees not available" scenario pays for; kept as an explicit
// constructor so experiments can compare build strategies.
func BulkLoadInsert(items []Item, opts ...Option) (*Tree, error) {
	t, err := New(opts...)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		t.Insert(it.Rect, it.ID)
	}
	return t, nil
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

// buildPacked packs entries in STR order into leaves and repeats upward
// until a single root remains.
func (t *Tree) buildPacked(entries []entry) {
	strOrder(entries, t.maxEntries)
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
// neighbour if it would be).
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
		chunk := make([]entry, end-start)
		copy(chunk, entries[start:end])
		nodes = append(nodes, &node{leaf: leaf, entries: chunk})
	}
	return nodes
}
