// Package rtree implements the R-tree of Guttman (SIGMOD 1984) for 2-D
// rectangles, with quadratic-split insertion, deletion, range search,
// Sort-Tile-Recursive bulk loading, and the synchronized-traversal spatial
// join of Brinkhoff, Kriegel and Seeger (SIGMOD 1993). Pack freezes a tree
// into the read-only image the served joins and probes run on (packed.go,
// packedjoin.go).
//
// The tree stores opaque integer item IDs alongside their MBRs; callers keep
// the actual objects. Node accesses are counted so experiments can report
// I/O-proportional costs without a real disk.
package rtree

import (
	"fmt"
	"math"
	"sync/atomic"

	"spatialsel/internal/geom"
)

// Default fanout constants. 50 entries/node models a 4 KiB page of
// (4×float64 + int64) entries plus headers, matching classic R-tree papers.
const (
	DefaultMaxEntries = 50
	DefaultMinEntries = 20 // 40% of max, Guttman's recommendation
)

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

func (n *node) mbr() geom.Rect {
	m := n.entries[0].rect
	for _, e := range n.entries[1:] {
		m = m.Union(e.rect)
	}
	return m
}

// Tree is an R-tree. The zero value is not usable; construct with New or one
// of the bulk loaders. Tree is not safe for concurrent mutation; concurrent
// read-only use (Search, Join) is safe, including the access counter, which
// is maintained atomically so concurrent joins and sharded index probes can
// share a tree.
type Tree struct {
	root       *node
	size       int
	height     int // number of levels; 0 for empty tree
	maxEntries int
	minEntries int
	accesses   atomic.Int64 // node touches since last ResetAccesses
	// levels memoizes LevelStats between mutations (nil = not computed).
	levels atomic.Pointer[[]LevelStat]
}

// Option configures a Tree.
type Option func(*Tree) error

// WithFanout sets the node capacity. min must be at least 2 and at most
// max/2; max must be at least 4.
func WithFanout(min, max int) Option {
	return func(t *Tree) error {
		if max < 4 || min < 2 || min > max/2 {
			return fmt.Errorf("rtree: invalid fanout min=%d max=%d", min, max)
		}
		t.minEntries, t.maxEntries = min, max
		return nil
	}
}

// New returns an empty R-tree.
func New(opts ...Option) (*Tree, error) {
	t := &Tree{maxEntries: DefaultMaxEntries, minEntries: DefaultMinEntries}
	for _, o := range opts {
		if err := o(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(opts ...Option) *Tree {
	t, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (0 when empty, 1 when the root is a
// leaf).
func (t *Tree) Height() int { return t.height }

// Accesses returns the number of node touches since construction or the last
// ResetAccesses. One touch approximates one page read.
func (t *Tree) Accesses() int64 { return t.accesses.Load() }

// ResetAccesses zeroes the access counter.
func (t *Tree) ResetAccesses() { t.accesses.Store(0) }

func (t *Tree) touch(n *node) *node {
	t.accesses.Add(1)
	return n
}

// Insert adds one rectangle with its item ID.
func (t *Tree) Insert(r geom.Rect, id int) {
	t.levels.Store(nil)
	if t.root == nil {
		t.root = &node{leaf: true}
		t.height = 1
	}
	leaf := t.chooseLeaf(t.root, r)
	leaf.entries = append(leaf.entries, entry{rect: r, id: id})
	t.size++
	t.splitUpward(leaf, r)
}

// splitUpward handles overflow propagation from leaf to root. Because nodes
// do not store parent pointers, we re-descend from the root adjusting MBRs;
// path recording keeps this O(height).
func (t *Tree) splitUpward(leaf *node, r geom.Rect) {
	// Fast path: no overflow anywhere — nothing to do beyond MBR growth,
	// which is implicit since MBRs are computed on demand from entries.
	if len(leaf.entries) <= t.maxEntries {
		return
	}
	t.rebuildPathAndSplit(leaf)
}

// rebuildPathAndSplit finds the path from root to the overflowing node and
// splits bottom-up.
func (t *Tree) rebuildPathAndSplit(target *node) {
	path := t.findPath(t.root, target, nil)
	if path == nil {
		return // should not happen
	}
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= t.maxEntries {
			break
		}
		left, right := t.splitNode(n)
		if i == 0 {
			// Root split: grow the tree.
			t.root = &node{
				leaf: false,
				entries: []entry{
					{rect: left.mbr(), child: left},
					{rect: right.mbr(), child: right},
				},
			}
			t.height++
			return
		}
		parent := path[i-1]
		// Replace the entry pointing at n with left, append right.
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j] = entry{rect: left.mbr(), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, entry{rect: right.mbr(), child: right})
	}
}

// findPath returns the root→target node path, or nil if target is absent.
func (t *Tree) findPath(n, target *node, acc []*node) []*node {
	acc = append(acc, n)
	if n == target {
		return acc
	}
	if n.leaf {
		return nil
	}
	for _, e := range n.entries {
		if p := t.findPath(e.child, target, acc); p != nil {
			return p
		}
	}
	return nil
}

// chooseLeaf descends to the leaf requiring least enlargement to cover r
// (ties broken by smaller area), updating covering rectangles on the way
// down.
func (t *Tree) chooseLeaf(n *node, r geom.Rect) *node {
	t.touch(n)
	for !n.leaf {
		best := -1
		bestEnl, bestArea := math.Inf(1), math.Inf(1)
		for i, e := range n.entries {
			enl := e.rect.Enlargement(r)
			area := e.rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = t.touch(n.entries[best].child)
	}
	return n
}

// splitNode performs Guttman's quadratic split, distributing n's entries
// into two new nodes.
func (t *Tree) splitNode(n *node) (left, right *node) {
	entries := n.entries
	// Pick seeds: the pair wasting the most area if grouped together.
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	left = &node{leaf: n.leaf, entries: []entry{entries[seedA]}}
	right = &node{leaf: n.leaf, entries: []entry{entries[seedB]}}
	lm, rm := entries[seedA].rect, entries[seedB].rect

	remaining := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			remaining = append(remaining, e)
		}
	}
	for len(remaining) > 0 {
		// If one group must take all remaining entries to reach minEntries,
		// assign them wholesale.
		if len(left.entries)+len(remaining) == t.minEntries {
			for _, e := range remaining {
				left.entries = append(left.entries, e)
			}
			break
		}
		if len(right.entries)+len(remaining) == t.minEntries {
			for _, e := range remaining {
				right.entries = append(right.entries, e)
			}
			break
		}
		// PickNext: entry with maximal preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range remaining {
			dl := lm.Enlargement(e.rect)
			dr := rm.Enlargement(e.rect)
			if d := math.Abs(dl - dr); d > bestDiff {
				bestIdx, bestDiff = i, d
			}
		}
		e := remaining[bestIdx]
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		dl, dr := lm.Enlargement(e.rect), rm.Enlargement(e.rect)
		takeLeft := dl < dr
		if dl == dr {
			if la, ra := lm.Area(), rm.Area(); la != ra {
				takeLeft = la < ra
			} else {
				takeLeft = len(left.entries) <= len(right.entries)
			}
		}
		if takeLeft {
			left.entries = append(left.entries, e)
			lm = lm.Union(e.rect)
		} else {
			right.entries = append(right.entries, e)
			rm = rm.Union(e.rect)
		}
	}
	return left, right
}

// Search appends to out the IDs of all items whose rectangles intersect q,
// and returns the extended slice.
func (t *Tree) Search(q geom.Rect, out []int) []int {
	if t.root == nil {
		return out
	}
	return t.search(t.root, q, out)
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

// Delete removes one item with exactly the given rectangle and ID, returning
// whether it was found. Underflowing nodes are condensed by reinsertion
// (Guttman's CondenseTree).
func (t *Tree) Delete(r geom.Rect, id int) bool {
	if t.root == nil {
		return false
	}
	leaf, idx := t.findLeaf(t.root, r, id)
	if leaf == nil {
		return false
	}
	t.levels.Store(nil)
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(leaf)
	return true
}

func (t *Tree) findLeaf(n *node, r geom.Rect, id int) (*node, int) {
	t.touch(n)
	for i, e := range n.entries {
		if n.leaf {
			if e.id == id && e.rect == r {
				return n, i
			}
			continue
		}
		if e.rect.Contains(r) {
			if leaf, idx := t.findLeaf(e.child, r, id); leaf != nil {
				return leaf, idx
			}
		}
	}
	return nil, -1
}

// condense removes underflowing nodes along the path to leaf and reinserts
// their orphaned entries.
func (t *Tree) condense(leaf *node) {
	path := t.findPath(t.root, leaf, nil)
	var orphans []entry
	for i := len(path) - 1; i > 0; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < t.minEntries {
			// Remove n from parent; collect its entries.
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			orphans = append(orphans, n.entries...)
		} else {
			// Tighten the parent entry's MBR.
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries[j].rect = n.mbr()
					break
				}
			}
		}
	}
	// Shrink the root if it has a single child.
	for t.root != nil && !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
	}
	if t.root != nil && len(t.root.entries) == 0 {
		t.root = nil
		t.height = 0
	}
	// Reinsert orphans. Leaf entries re-enter via Insert; subtree orphans
	// re-enter item by item (simpler than level-aware reinsertion and rare).
	for _, e := range orphans {
		if e.child == nil {
			t.size-- // Insert will increment again
			t.Insert(e.rect, e.id)
		} else {
			t.reinsertSubtree(e.child)
		}
	}
}

func (t *Tree) reinsertSubtree(n *node) {
	if n.leaf {
		for _, e := range n.entries {
			t.size-- // entry is already counted; Insert will re-count it
			t.Insert(e.rect, e.id)
		}
		return
	}
	for _, e := range n.entries {
		t.reinsertSubtree(e.child)
	}
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
	s := Stats{Items: t.size, Height: t.height}
	if t.root == nil {
		return s
	}
	s.RootMBR = t.root.mbr()
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
	walk(t.root)
	s.Bytes = int64(totalEntries)*40 + int64(s.Nodes)*16
	if s.Nodes > 0 {
		s.AvgFill = float64(totalEntries) / float64(s.Nodes) / float64(t.maxEntries)
	}
	return s
}

// checkInvariants validates structural invariants for tests: every node MBR
// covers its entries, leaves share a depth, fill bounds hold (root exempt).
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("empty tree with size=%d height=%d", t.size, t.height)
		}
		return nil
	}
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		if len(n.entries) == 0 {
			return fmt.Errorf("empty node at depth %d", depth)
		}
		if !isRoot && (len(n.entries) < t.minEntries || len(n.entries) > t.maxEntries) {
			return fmt.Errorf("fill violation at depth %d: %d entries", depth, len(n.entries))
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			if !e.rect.Contains(e.child.mbr()) {
				return fmt.Errorf("entry MBR %v does not cover child MBR %v", e.rect, e.child.mbr())
			}
			if err := walk(e.child, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("leaf count %d != size %d", count, t.size)
	}
	if leafDepth != t.height {
		return fmt.Errorf("leaf depth %d != height %d", leafDepth, t.height)
	}
	return nil
}
