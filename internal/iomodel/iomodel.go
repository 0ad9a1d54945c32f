// Package iomodel predicts the I/O cost (node accesses) of an R-tree join
// analytically, in the tradition of the cost models of Kamel–Faloutsos,
// Theodoridis et al. and Huang et al. that the paper cites as companions to
// selectivity estimation ([12], [25]) and names as future work. Predictions
// use only the per-level node statistics of the two trees — never the data —
// so the planner can price a join (sdb.Plan.JoinIO) before touching a page.
//
// The model assumes node MBRs are uniformly positioned in the unit extent,
// the same assumption the Kamel–Faloutsos range formula makes for data
// rectangles. On packed trees over reasonably uniform data the predictions
// land within a small constant of measured accesses; on heavily skewed data
// they degrade exactly the way the paper's parametric selectivity formula
// does — which is the motivation for histogram-based refinements.
package iomodel

import "spatialsel/internal/rtree"

// JoinAccesses predicts the total node accesses of a synchronized-traversal
// join between two trees. Levels are aligned from the root; when heights
// differ, the shorter tree's leaf level is matched against each remaining
// level of the taller tree (the traversal keeps probing the same leaves
// while descending the taller tree). At each aligned level pair the expected
// number of node pairs with intersecting MBRs is
//
//	n₁·n₂·min(1, (W₁+W₂)·(H₁+H₂))
//
// and every such pair costs one access on each side.
func JoinAccesses(a, b []rtree.LevelStat) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	depth := len(a)
	if len(b) > depth {
		depth = len(b)
	}
	var total float64
	for i := 0; i < depth; i++ {
		la := a[min(i, len(a)-1)]
		lb := b[min(i, len(b)-1)]
		p := (la.AvgWidth + lb.AvgWidth) * (la.AvgHeight + lb.AvgHeight)
		if p > 1 {
			p = 1
		}
		pairs := float64(la.Nodes) * float64(lb.Nodes) * p
		// Neither side can be accessed more often than once per pair with
		// the other side's full level, nor fewer than 0 times; the pair
		// count itself is already bounded by the min-1 clip above.
		total += 2 * pairs
	}
	return total
}

// MeasureJoinAccesses runs the join and returns both trees' combined node
// touches.
func MeasureJoinAccesses(a, b *rtree.Tree) int64 {
	a.ResetAccesses()
	b.ResetAccesses()
	rtree.JoinCount(a, b)
	return a.Accesses() + b.Accesses()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
