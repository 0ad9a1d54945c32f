package histogram

import (
	"fmt"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// PH is the Parametric Histogram technique (paper §3.1.2): the spatial
// extent is gridded into 4^h cells and the Aref–Samet parameters are
// maintained per cell, separately for MBRs fully contained in the cell
// (Cont) and MBRs that intersect it while crossing its boundary (Isect).
// Estimation applies the Eqn-1 pattern to the four Cont/Isect combinations
// per cell and divides the Isect×Isect term by the mean AvgSpan to
// approximately cancel multiple counting (Eqn. 3).
//
// At level 0, PH degenerates exactly to the Parametric technique.
type PH struct {
	grid           Grid
	spanCorrection bool
}

// PHOption configures a PH technique.
type PHOption func(*PH)

// WithoutSpanCorrection disables the AvgSpan division of the Isect×Isect
// term. Exists for the ablation quantifying how much the correction buys.
func WithoutSpanCorrection() PHOption {
	return func(p *PH) { p.spanCorrection = false }
}

// NewPH returns a PH technique at gridding level h ∈ [0, MaxLevel].
func NewPH(level int, opts ...PHOption) (*PH, error) {
	g, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	p := &PH{grid: g, spanCorrection: true}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// MustPH is NewPH for static levels; it panics on error.
func MustPH(level int, opts ...PHOption) *PH {
	p, err := NewPH(level, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Technique.
func (p *PH) Name() string {
	if !p.spanCorrection {
		return fmt.Sprintf("PH(h=%d,nospan)", p.grid.Level())
	}
	return fmt.Sprintf("PH(h=%d)", p.grid.Level())
}

// Level returns the gridding level.
func (p *PH) Level() int { return p.grid.Level() }

// phCell carries the Table-1 per-cell parameters, in finalized (averaged)
// form. The primed fields describe the Isect group's *intersections with the
// cell*, not the whole MBRs.
type phCell struct {
	Num  float64 // MBRs fully contained in the cell
	Cov  float64 // Σ contained-MBR areas / cell area
	Xavg float64 // mean contained-MBR width
	Yavg float64 // mean contained-MBR height

	NumP  float64 // boundary-crossing MBRs intersecting the cell
	CovP  float64 // Σ intersection areas / cell area
	XavgP float64 // mean intersection width
	YavgP float64 // mean intersection height
}

// PHSummary is the PH histogram file for one dataset.
type PHSummary struct {
	name    string
	n       int
	level   int
	avgSpan float64 // mean cells spanned by boundary-crossing MBRs (≥1)
	cells   []phCell
}

// DatasetName implements core.Summary.
func (s *PHSummary) DatasetName() string { return s.name }

// ItemCount implements core.Summary.
func (s *PHSummary) ItemCount() int { return s.n }

// SizeBytes implements core.Summary: eight float64 parameters per cell plus
// a small header.
func (s *PHSummary) SizeBytes() int64 { return int64(len(s.cells))*64 + 32 }

// Level returns the summary's gridding level.
func (s *PHSummary) Level() int { return s.level }

// AvgSpan returns the dataset's mean boundary-crossing span.
func (s *PHSummary) AvgSpan() float64 { return s.avgSpan }

// Build implements core.Technique: one pass over the (normalized) dataset
// accumulating the Table-1 parameters.
func (p *PH) Build(d *dataset.Dataset) (core.Summary, error) {
	start := time.Now()
	defer func() { recordBuild("ph", start) }()
	nd := d.Normalize()
	g := p.grid
	cells := make([]phCell, g.Cells())
	cellArea := g.CellArea()

	var spanSum, spanCount float64
	for _, r := range nd.Items {
		i0, i1, j0, j1 := g.CellRange(r)
		if i0 == i1 && j0 == j1 {
			// Fully contained in one cell.
			c := &cells[g.CellIndex(i0, j0)]
			c.Num++
			c.Cov += r.Area() / cellArea
			c.Xavg += r.Width() // sums; averaged below
			c.Yavg += r.Height()
			continue
		}
		span := float64((i1 - i0 + 1) * (j1 - j0 + 1))
		spanSum += span
		spanCount++
		g.VisitCells(r, func(i, j int, inter geom.Rect) {
			c := &cells[g.CellIndex(i, j)]
			c.NumP++
			c.CovP += inter.Area() / cellArea
			c.XavgP += inter.Width()
			c.YavgP += inter.Height()
		})
	}
	// Finalize averages.
	for idx := range cells {
		c := &cells[idx]
		if c.Num > 0 {
			c.Xavg /= c.Num
			c.Yavg /= c.Num
		}
		if c.NumP > 0 {
			c.XavgP /= c.NumP
			c.YavgP /= c.NumP
		}
	}
	avgSpan := 1.0
	if spanCount > 0 {
		avgSpan = spanSum / spanCount
	}
	return &PHSummary{name: d.Name, n: d.Len(), level: g.Level(), avgSpan: avgSpan, cells: cells}, nil
}

// Estimate implements core.Technique (Eqn. 3).
func (p *PH) Estimate(a, b core.Summary) (core.Estimate, error) {
	sa, ok := a.(*PHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	sb, ok := b.(*PHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	if sa.level != p.grid.Level() || sb.level != p.grid.Level() {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	area := p.grid.CellArea()
	var sumABC, sumD float64
	for idx := range sa.cells {
		ca, cb := &sa.cells[idx], &sb.cells[idx]
		// Sa: Cont×Cont — Eqn-1 within the cell.
		sumABC += pairTerm(ca.Num, ca.Cov, ca.Xavg, ca.Yavg,
			cb.Num, cb.Cov, cb.Xavg, cb.Yavg, area)
		// Sb: Cont(a)×Isect(b).
		sumABC += pairTerm(ca.Num, ca.Cov, ca.Xavg, ca.Yavg,
			cb.NumP, cb.CovP, cb.XavgP, cb.YavgP, area)
		// Sc: Isect(a)×Cont(b).
		sumABC += pairTerm(ca.NumP, ca.CovP, ca.XavgP, ca.YavgP,
			cb.Num, cb.Cov, cb.Xavg, cb.Yavg, area)
		// Sd: Isect×Isect — the only multiple-counted term.
		sumD += pairTerm(ca.NumP, ca.CovP, ca.XavgP, ca.YavgP,
			cb.NumP, cb.CovP, cb.XavgP, cb.YavgP, area)
	}
	if p.spanCorrection {
		sumD /= (sa.avgSpan + sb.avgSpan) / 2
	}
	recordEstimate("ph")
	return core.NewEstimate(sumABC+sumD, sa.n, sb.n), nil
}

// pairTerm evaluates the Eqn-1 pattern for one group pair within a cell:
//
//	N1·C2 + C1·N2 + N1·N2·(X1·Y2 + Y1·X2)/area
//
// An empty group zeroes every term it appears in (its count and coverage
// are both zero), so no special-casing is needed.
func pairTerm(n1, c1, x1, y1, n2, c2, x2, y2, area float64) float64 {
	return n1*c2 + c1*n2 + n1*n2*(x1*y2+y1*x2)/area
}
