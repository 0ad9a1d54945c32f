// Package sweep implements a sort-based plane-sweep rectangle-intersection
// join in the style of Preparata–Shamos. It is the library's exact
// ground-truth join: experiments compute true selectivities with it, the
// benchmark's verifier holds every served query's total_rows to its Count,
// the tests hold every other exact join to it, and it doubles as the no-index
// baseline the paper's "Est. Time 1" scenario builds R-trees to beat. It is
// not a served path: no query's rows come from it — the executor's join is
// rtree.PackedJoinBatches, a sweep per grid tile over a prebuilt index — and
// no request reaches it: the server's sampling estimates keep sample's default
// RTreeJoin strategy (an R-tree per sample, joined by the pointer join), and
// sample.SweepJoin, which counts the two samples' join here, is selected only
// by an ablation benchmark and tests. With brute force and the pointer R-tree
// join it is one of three independent oracles; keep it index-free and simple.
//
// The algorithm sorts both inputs by MinX and sweeps a vertical line across
// the plane. When the line reaches a rectangle's left edge, the rectangle is
// checked against the other set's active rectangles (those whose x-range
// contains the line) for y-overlap. Expected time is O((n+m)·log(n+m) + k·s)
// where s is the average number of active rectangles.
package sweep

import (
	"sort"

	"spatialsel/internal/geom"
)

// Pair is one join result: indices into the two input slices.
type Pair struct {
	A, B int
}

// Join returns all intersecting pairs between as and bs (closed-rectangle
// semantics, consistent with geom.Rect.Intersects).
func Join(as, bs []geom.Rect) []Pair {
	var out []Pair
	JoinFunc(as, bs, func(a, b int) { out = append(out, Pair{A: a, B: b}) })
	return out
}

// Count returns the number of intersecting pairs without materializing them.
func Count(as, bs []geom.Rect) int {
	n := 0
	JoinFunc(as, bs, func(int, int) { n++ })
	return n
}

// JoinFunc streams each intersecting pair (index into as, index into bs) to
// emit, in ascending order of the pair's later MinX coordinate.
func JoinFunc(as, bs []geom.Rect, emit func(a, b int)) {
	if len(as) == 0 || len(bs) == 0 {
		return
	}
	ia := sortedIndex(as)
	ib := sortedIndex(bs)
	i, j := 0, 0
	for i < len(ia) && j < len(ib) {
		if as[ia[i]].MinX <= bs[ib[j]].MinX {
			scan(as, bs, ia[i], ib, j, emit, false)
			i++
		} else {
			scan(bs, as, ib[j], ia, i, emit, true)
			j++
		}
	}
}

// sortedIndex returns the indices of rs ordered by ascending MinX.
func sortedIndex(rs []geom.Rect) []int {
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return rs[idx[i]].MinX < rs[idx[j]].MinX })
	return idx
}

// scan checks pivot (from ps) against candidates cs[ci[start:]] whose MinX
// falls within the pivot's x-range, emitting y-overlapping pairs. When
// swapped, the emit argument order is reversed so pairs are always
// (a-index, b-index).
func scan(ps, cs []geom.Rect, pivot int, ci []int, start int, emit func(int, int), swapped bool) {
	p := ps[pivot]
	for k := start; k < len(ci) && cs[ci[k]].MinX <= p.MaxX; k++ {
		c := cs[ci[k]]
		if p.MinY <= c.MaxY && c.MinY <= p.MaxY {
			if swapped {
				emit(ci[k], pivot)
			} else {
				emit(pivot, ci[k])
			}
		}
	}
}

// Selectivity runs the exact join and returns the paper's selectivity
// metric: |result| / (|as| · |bs|). It returns 0 for empty inputs.
func Selectivity(as, bs []geom.Rect) float64 {
	if len(as) == 0 || len(bs) == 0 {
		return 0
	}
	return float64(Count(as, bs)) / (float64(len(as)) * float64(len(bs)))
}
