package histogram

import (
	"math"

	"spatialsel/internal/core"
	"spatialsel/internal/geom"
)

// Range-query selectivity estimation from the same histogram files the join
// estimators use. The paper's future work asks for "selectivity and I/O
// costs for other spatial database operations"; range selection is the most
// common one, and both summaries support it with no extra state:
//
//   - A GH summary treats the query window as a one-rectangle dataset and
//     counts expected intersection points against it per cell (Eqn. 5 with
//     the query's exact C/O/H/V contributions instead of a second
//     histogram). Those separate by axis — in cell (i, j), C = nv·nh,
//     O = ix·iy/cellArea, H = nh·ix/cw, V = nv·iy/ch, from the window's
//     clipped extent and side count per column (ix, nv) and row (iy, nh) —
//     so the cells are walked row by row off per-column terms, each product
//     the float64 the one-cell derivation gives (ghCellParamsOf, in tests).
//   - A PH summary applies the Kamel–Faloutsos expected-intersection formula
//     per cell, separately for the contained and boundary-crossing groups.
//   - A Parametric summary applies the global Kamel–Faloutsos formula,
//     reproducing the prior art the paper's histograms refine.
//
// All three return the expected number of dataset MBRs intersecting the
// query window; divide by ItemCount for a selectivity.

// EstimateRange returns the expected number of s's dataset rectangles
// intersecting the query window q (clipped to the unit square, since
// summaries are built over normalized data).
func (s *GHSummary) EstimateRange(q geom.Rect) float64 {
	q, ok := clipUnit(q)
	if !ok {
		return 0
	}
	grid := MustGrid(s.level)
	cw, ch := grid.CellWidth(), grid.CellHeight()
	// Only cells the query touches can contribute (its corners, edges and
	// area are all confined to them); a clipped window meets all of its range.
	i0, i1, j0, j1 := grid.CellRange(q)
	// The cell area is a power of two, so multiplying by its reciprocal
	// rounds exactly as dividing by it does.
	perArea := 1 / grid.CellArea()
	var buf [128]windowSpan // a level-7 row; no allocation up to there
	cols := buf[:0]
	if n := i1 - i0 + 1; n > len(buf) {
		cols = make([]windowSpan, 0, n)
	}
	for i := i0; i <= i1; i++ {
		cols = append(cols, spanOf(q.MinX, q.MaxX, cw, i, i0, i1))
	}
	var ip float64
	for j := j0; j <= j1; j++ {
		row := spanOf(q.MinY, q.MaxY, ch, j, j0, j1)
		cells := s.cells[grid.CellIndex(i0, j):][:len(cols)] // none if inverted
		for k := range cells {
			cd, col := &cells[k], &cols[k]
			cq := ghCell{C: col.edges * row.edges, O: col.in * row.in * perArea, H: row.edges * col.ratio, V: col.edges * row.ratio}
			ip += cq.C*cd.O + cd.C*cq.O + cq.H*cd.V + cd.H*cq.V
		}
	}
	// Four intersection points per intersecting pair.
	return ip / 4
}

// windowSpan is a window's share of one grid column (or row): its clipped
// extent, that extent over the cell side when positive, and how many of its
// sides across the axis lie there (0–2).
type windowSpan struct{ in, ratio, edges float64 }

// spanOf is the window [lo, hi]'s span of cell k of its range [k0, k1], as
// geom.Rect.Intersection and applyGHItem compute it.
func spanOf(lo, hi, side float64, k, k0, k1 int) windowSpan {
	w := windowSpan{in: math.Min(hi, float64(k+1)*side) - math.Max(lo, float64(k)*side)}
	if w.in > 0 {
		w.ratio = w.in / side
	}
	for _, end := range [2]int{k0, k1} {
		if k == end {
			w.edges++
		}
	}
	return w
}

// EstimateRange returns the expected number of s's dataset rectangles
// intersecting the query window q.
func (s *PHSummary) EstimateRange(q geom.Rect) float64 {
	q, ok := clipUnit(q)
	if !ok {
		return 0
	}
	grid := MustGrid(s.level)
	cw, ch := grid.CellWidth(), grid.CellHeight()
	var contained, crossing float64
	grid.VisitCells(q, func(i, j int, _ geom.Rect) {
		c := &s.cells[grid.CellIndex(i, j)]
		cell := grid.CellRect(i, j)
		if c.Num > 0 {
			contained += c.Num * minCornerProb(cell, q, c.Xavg, c.Yavg, cw, ch)
		}
		if c.NumP > 0 {
			crossing += c.NumP * minCornerProb(cell, q, c.XavgP, c.YavgP, cw, ch)
		}
	})
	// A boundary-crossing MBR can meet the query in several cells; the same
	// AvgSpan division the join estimator uses approximately cancels the
	// multiple counting.
	if s.avgSpan > 0 {
		crossing /= s.avgSpan
	}
	return contained + crossing
}

// EstimateRange returns the expected number of rectangles intersecting q
// under the global uniformity assumption (Kamel–Faloutsos).
func (s *ParametricSummary) EstimateRange(q geom.Rect) float64 {
	q, ok := clipUnit(q)
	if !ok {
		return 0
	}
	// P(intersect) for a (W,H) rectangle uniformly placed in the unit square
	// is the area of the Minkowski-expanded query clipped to the placement
	// domain of the rectangle's min corner.
	return float64(s.stats.N) * uniformIntersectProb(geom.UnitSquare, q, s.stats.AvgWidth, s.stats.AvgHeight)
}

// clipUnit clips q to the unit square, reporting false for windows entirely
// outside it.
func clipUnit(q geom.Rect) (geom.Rect, bool) {
	return q.Intersection(geom.UnitSquare)
}

// minCornerProb is uniformIntersectProb for a rectangle constrained to a
// grid cell: the probability that a w×h rectangle whose min corner is
// uniform in cell intersects q.
func minCornerProb(cell, q geom.Rect, w, h, cw, ch float64) float64 {
	if cw <= 0 || ch <= 0 {
		return 0
	}
	// The min corner must lie within [q.MinX−w, q.MaxX] × [q.MinY−h, q.MaxY]
	// for the rectangle to reach q; intersect that band with the cell.
	loX := maxf(cell.MinX, q.MinX-w)
	hiX := minf(cell.MaxX, q.MaxX)
	loY := maxf(cell.MinY, q.MinY-h)
	hiY := minf(cell.MaxY, q.MaxY)
	if hiX <= loX || hiY <= loY {
		return 0
	}
	p := ((hiX - loX) / cw) * ((hiY - loY) / ch)
	if p > 1 {
		p = 1
	}
	return p
}

// uniformIntersectProb is minCornerProb over an arbitrary placement domain.
func uniformIntersectProb(domain, q geom.Rect, w, h float64) float64 {
	return minCornerProb(domain, q, w, h, domain.Width(), domain.Height())
}

// RangeEstimator is implemented by every summary kind that can answer
// range-query cardinality estimates.
type RangeEstimator interface {
	core.Summary
	// EstimateRange returns the expected number of dataset rectangles
	// intersecting the window.
	EstimateRange(q geom.Rect) float64
}

// Interface conformance checks.
var (
	_ RangeEstimator = (*GHSummary)(nil)
	_ RangeEstimator = (*PHSummary)(nil)
	_ RangeEstimator = (*ParametricSummary)(nil)
)
