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

// LevelStats returns one entry per level, root first, nil for an empty tree.
// The first call walks the whole tree and the result is kept with it (a tree
// never changes), because the benchmark's layer replay (bench/) asks once per
// operation; on a TreeOf tree that nothing has read yet, the first call cuts
// it too. The slice is shared between callers and must not be modified. No
// served path reads it: its readers are the I/O model (iomodel) and that
// replay.
func (t *Tree) LevelStats() []LevelStat {
	root := t.nodes()
	if root == nil {
		return nil
	}
	if cached := t.levels.Load(); cached != nil {
		return *cached
	}
	out := make([]LevelStat, t.height)
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		ls, m := &out[depth-1], n.mbr()
		ls.Nodes++
		ls.AvgWidth += m.Width()
		ls.AvgHeight += m.Height()
		ls.AvgArea += m.Area()
		if n.leaf {
			return
		}
		for _, e := range n.entries {
			walk(e.child, depth+1)
		}
	}
	walk(root, 1)
	for i := range out {
		ls, n := &out[i], float64(out[i].Nodes)
		ls.Level = i + 1
		ls.AvgWidth /= n
		ls.AvgHeight /= n
		ls.AvgArea /= n
	}
	// Concurrent readers of an unchanging tree may each walk it once; they
	// store equal slices.
	t.levels.Store(&out)
	return out
}

// RootMBR returns the root's bounding rectangle and false for an empty
// tree.
func (t *Tree) RootMBR() (geom.Rect, bool) {
	root := t.nodes()
	if root == nil {
		return geom.Rect{}, false
	}
	return root.mbr(), true
}
