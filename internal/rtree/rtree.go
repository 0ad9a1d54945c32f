// Package rtree holds the two indexes of the reproduction. PackItems lays a
// set of items out as the read-only image the served joins and probes run on
// (packed.go, packedjoin.go). The pointer R-tree of Guttman (SIGMOD 1984) is
// the paper's baseline: a static tree, bulk loaded by Sort-Tile-Recursive
// packing (BulkLoadSTR) for the Est. Time and Space Cost denominators of
// internal/experiments, or cut from a packed image (TreeOf), with range search
// and the synchronized-traversal spatial join of Brinkhoff, Kriegel and Seeger
// (SIGMOD 1993) — the oracle the tests hold the served kernel to. A tree is
// never updated once built: a table that changes gets a new image, and a new
// tree over it. A TreeOf tree holds only its image until something first reads
// its nodes, and is cut then, once, so a table that publishes a tree nobody
// reads pays nothing for it.
//
// The tree stores opaque integer item IDs alongside their MBRs; callers keep
// the actual objects. Node accesses are counted so experiments can report
// I/O-proportional costs without a real disk.
package rtree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
)

// DefaultMaxEntries is the node capacity: 50 entries/node models a 4 KiB page
// of (4×float64 + int64) entries plus headers, matching classic R-tree papers.
const DefaultMaxEntries = 50

// entry is a slot in a node: a rectangle plus either a child pointer
// (internal nodes) or an item ID (leaves).
type entry struct {
	rect  geom.Rect
	child *node // nil in leaves
	id    int   // valid in leaves only
}

// node is an R-tree node. Nodes are leaves iff leaf is true; all leaves are
// at the same depth.
type node struct {
	entries []entry
	leaf    bool
}

// mbr is the union of the node's entry rectangles, by plain comparisons:
// math.Min and math.Max, which Rect.Union uses for their NaN and signed-zero
// rules, cost more than the rest of cutting a tree.
func (n *node) mbr() geom.Rect {
	m := n.entries[0].rect
	for i := range n.entries[1:] {
		r := &n.entries[i+1].rect
		if r.MinX < m.MinX {
			m.MinX = r.MinX
		}
		if r.MinY < m.MinY {
			m.MinY = r.MinY
		}
		if r.MaxX > m.MaxX {
			m.MaxX = r.MaxX
		}
		if r.MaxY > m.MaxY {
			m.MaxY = r.MaxY
		}
	}
	return m
}

// mTreeCutItems counts items cut into pointer trees from packed images: what
// TreeOf trees cost when something first reads their nodes.
var mTreeCutItems = obs.Default.Counter("rtree_tree_cut_items_total",
	"Items cut into pointer R-trees from packed images (a TreeOf tree's first read).")

// Tree is a static R-tree, built whole by BulkLoadSTR, or by TreeOf on first
// read, and never changed after. Concurrent use is safe, the first read of a
// TreeOf tree included, and so is the access counter, which is maintained
// atomically so concurrent joins and probes can share a tree.
type Tree struct {
	root       *node
	size       int
	height     int // number of levels; 0 for empty tree
	maxEntries int
	// image is the packed image a TreeOf tree is cut from, nil once cut and on
	// a BulkLoadSTR tree; cut guards the cut. Only nodes reads either.
	image    *Packed
	cut      sync.Once
	accesses atomic.Int64 // node touches since last ResetAccesses
	// levels memoizes LevelStats (nil = not computed yet).
	levels atomic.Pointer[[]LevelStat]
}

// nodes returns the root, nil for an empty tree, first cutting a TreeOf tree's
// nodes from its image if nothing has yet: every reader of root, height or the
// nodes goes through it.
func (t *Tree) nodes() *node {
	t.cut.Do(func() {
		if t.image == nil {
			return
		}
		entries := make([]entry, 0, t.size)
		t.image.VisitItems(func(id int, r geom.Rect) { entries = append(entries, entry{rect: r, id: id}) })
		t.image = nil
		t.buildPacked(entries)
		mTreeCutItems.Add(uint64(len(entries)))
	})
	return t.root
}

// Option configures a Tree.
type Option func(*Tree) error

// WithFanout sets the node capacity, at least 4.
func WithFanout(max int) Option {
	return func(t *Tree) error {
		if max < 4 {
			return fmt.Errorf("rtree: invalid fanout %d", max)
		}
		t.maxEntries = max
		return nil
	}
}

// Len returns the number of stored items. It reads no node, so it cuts no
// TreeOf tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (0 when empty, 1 when the root is a
// leaf).
func (t *Tree) Height() int {
	t.nodes()
	return t.height
}

// Accesses returns the number of node touches since construction or the last
// ResetAccesses. One touch approximates one page read.
func (t *Tree) Accesses() int64 { return t.accesses.Load() }

// ResetAccesses zeroes the access counter.
func (t *Tree) ResetAccesses() { t.accesses.Store(0) }

func (t *Tree) touch(n *node) *node {
	t.accesses.Add(1)
	return n
}

// Search appends to out the IDs of all items whose rectangles intersect q,
// and returns the extended slice.
func (t *Tree) Search(q geom.Rect, out []int) []int {
	root := t.nodes()
	if root == nil {
		return out
	}
	return t.search(root, q, out)
}

func (t *Tree) search(n *node, q geom.Rect, out []int) []int {
	t.touch(n)
	for _, e := range n.entries {
		if !e.rect.Intersects(q) {
			continue
		}
		if n.leaf {
			out = append(out, e.id)
		} else {
			out = t.search(e.child, q, out)
		}
	}
	return out
}

// Stats summarizes the physical shape of a tree.
type Stats struct {
	Items     int
	Height    int
	Nodes     int
	LeafNodes int
	Bytes     int64   // estimated storage: 40 bytes per entry slot + 16/node header
	AvgFill   float64 // mean entries/node / maxEntries
	RootMBR   geom.Rect
}

// ComputeStats walks the tree and returns its shape statistics. The byte
// estimate (40 bytes per entry, 16 per node header) stands in for on-disk
// page accounting.
func (t *Tree) ComputeStats() Stats {
	root := t.nodes()
	s := Stats{Items: t.size, Height: t.height}
	if root == nil {
		return s
	}
	s.RootMBR = root.mbr()
	var walk func(n *node)
	totalEntries := 0
	walk = func(n *node) {
		s.Nodes++
		totalEntries += len(n.entries)
		if n.leaf {
			s.LeafNodes++
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(root)
	s.Bytes = int64(totalEntries)*40 + int64(s.Nodes)*16
	if s.Nodes > 0 {
		s.AvgFill = float64(totalEntries) / float64(s.Nodes) / float64(t.maxEntries)
	}
	return s
}
