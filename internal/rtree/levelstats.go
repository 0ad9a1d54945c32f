package rtree

import "spatialsel/internal/geom"

// LevelStat summarizes one level of the tree for analytical cost models:
// how many nodes the level has and the average dimensions of their MBRs.
// Level 1 is the root; Height() is the leaf level.
type LevelStat struct {
	Level     int
	Nodes     int
	AvgWidth  float64
	AvgHeight float64
	AvgArea   float64
}

// add counts one node's MBR into the level; until averageLevels runs the Avg
// fields hold sums. Tree.LevelStats and Pack both accumulate through it, so
// the recorded statistics and the walked ones come from the same arithmetic.
func (ls *LevelStat) add(m geom.Rect) {
	ls.Nodes++
	ls.AvgWidth += m.Width()
	ls.AvgHeight += m.Height()
	ls.AvgArea += m.Area()
}

// averageLevels numbers the levels root-first and turns their sums into means.
func averageLevels(levels []LevelStat) {
	for i := range levels {
		ls := &levels[i]
		n := float64(ls.Nodes)
		ls.Level = i + 1
		ls.AvgWidth /= n
		ls.AvgHeight /= n
		ls.AvgArea /= n
	}
}

// LevelStats returns one entry per level, root first, nil for an empty tree.
// The first call after a mutation walks the whole tree; the result is kept
// until the next Insert or Delete, so pricing a published (immutable) tree
// per request is a field read, as it is for its packed image. The slice is
// shared between callers and must not be modified.
func (t *Tree) LevelStats() []LevelStat {
	if t.root == nil {
		return nil
	}
	if cached := t.levels.Load(); cached != nil {
		return *cached
	}
	out := make([]LevelStat, t.height)
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		out[depth-1].add(n.mbr())
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			walk(e.child, depth+1)
		}
	}
	walk(t.root, 1)
	averageLevels(out)
	// Concurrent readers of an unchanging tree may each walk it once; they
	// store equal slices.
	t.levels.Store(&out)
	return out
}

// RootMBR returns the root's bounding rectangle and false for an empty
// tree.
func (t *Tree) RootMBR() (geom.Rect, bool) {
	if t.root == nil {
		return geom.Rect{}, false
	}
	return t.root.mbr(), true
}
