package histogram

import (
	"fmt"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// GH is the Geometric Histogram technique, the paper's main contribution
// (§3.2.2, "Revised GH"). Per grid cell it maintains the four Table-2
// parameters for each dataset:
//
//	C — number of MBR corner points falling within the cell;
//	O — Σ over MBRs of (area of the MBR's intersection with the cell)/(cell area);
//	H — Σ over horizontal MBR edges of (length of the edge inside the cell)/(cell width);
//	V — Σ over vertical MBR edges of (length of the edge inside the cell)/(cell height).
//
// Estimation counts expected rectangle-intersection points per cell
// (Eqn. 5) — corner-in-rectangle events contribute C1·O2 + C2·O1 and
// edge-crossing events contribute H1·V2 + H2·V1, both under a
// uniform-within-cell assumption — and divides the total by four, because
// every intersecting pair produces exactly four intersection points.
type GH struct {
	grid Grid
}

// NewGH returns a revised-GH technique at gridding level h ∈ [0, MaxLevel].
func NewGH(level int) (*GH, error) {
	g, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	return &GH{grid: g}, nil
}

// MustGH is NewGH for static levels; it panics on error.
func MustGH(level int) *GH {
	g, err := NewGH(level)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements core.Technique.
func (g *GH) Name() string { return fmt.Sprintf("GH(h=%d)", g.grid.Level()) }

// Level returns the gridding level.
func (g *GH) Level() int { return g.grid.Level() }

// ghCell carries the Table-2 parameters of a summary.
type ghCell struct {
	C float64 // corner points in the cell
	O float64 // Σ intersection-area ratios
	H float64 // Σ horizontal-edge length ratios
	V float64 // Σ vertical-edge length ratios
}

// ghSums carries one cell's Table-2 parameters as exact sums while a
// histogram is built or maintained: C counts corners, and O, H and V count
// multiples of 2⁻³² of a cell, each item's contribution rounded once (fixed).
// Integer addition associates and +1/−1 are exact inverses, so the sums
// depend only on the multiset of items added — not on their order, on how
// the items were sharded across workers, or on the adds and removes that led
// there. One item adds at most 4 to C, 2³² to O and 2·2³² to H or V (two
// edges in one cell), so every sum stays below 2⁶¹ for fewer than 2²⁸ items,
// the count at which rtree.PackItems (buildTileIndex) panics.
type ghSums struct{ C, O, H, V int64 }

// ghScale is the number of units O, H and V count per cell.
const ghScale = 1 << 32

// fixed rounds a non-negative ratio to a whole number of 2⁻³² units.
func fixed(x float64) int64 { return int64(x*ghScale + 0.5) }

// summaryOf converts exact cell sums into a summary's float64 cells.
func summaryOf(name string, n, level int, sums []ghSums) *GHSummary {
	cells := make([]ghCell, len(sums))
	for i, s := range sums {
		cells[i] = ghCell{C: float64(s.C), O: float64(s.O) / ghScale, H: float64(s.H) / ghScale, V: float64(s.V) / ghScale}
	}
	return &GHSummary{name: name, n: n, level: level, cells: cells}
}

// GHSummary is the GH histogram file for one dataset.
type GHSummary struct {
	name  string
	n     int
	level int
	cells []ghCell
}

// DatasetName implements core.Summary.
func (s *GHSummary) DatasetName() string { return s.name }

// ItemCount implements core.Summary.
func (s *GHSummary) ItemCount() int { return s.n }

// SizeBytes implements core.Summary: four float64 parameters per cell plus a
// small header — half of PH's per-cell cost, as the paper notes.
func (s *GHSummary) SizeBytes() int64 { return int64(len(s.cells))*32 + 24 }

// Level returns the summary's gridding level.
func (s *GHSummary) Level() int { return s.level }

// Build implements core.Technique: one pass over the (normalized) dataset
// accumulating C, O, H and V, sharded across GOMAXPROCS workers from
// ghShardMinItems items on (the sums are exact, so the split cannot change
// a bit of the result).
func (g *GH) Build(d *dataset.Dataset) (core.Summary, error) {
	return buildGH(d, g.grid, shardWorkers(d.Len())), nil
}

// buildGH is the one GH build: Build and BuildGHParallel differ only in how
// many workers they ask for.
func buildGH(d *dataset.Dataset, grid Grid, workers int) *GHSummary {
	start := time.Now()
	s := summaryOf(d.Name, d.Len(), grid.Level(), sumGH(grid, unitItems(d), workers))
	recordBuild("gh", start)
	return s
}

// unitItems returns d's items normalized to the unit square. Items whose
// extent already is the unit square are read in place: there NormalizeRect
// is the identity bit for bit, so Normalize's copy would change nothing.
func unitItems(d *dataset.Dataset) []geom.Rect {
	//lint:ignore floateq only the exact unit square makes NormalizeRect the identity
	if d.Extent == geom.UnitSquare {
		return d.Items
	}
	return d.Normalize().Items
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Estimate implements core.Technique (Eqn. 5): expected intersection points
// per cell, summed and divided by four.
func (g *GH) Estimate(a, b core.Summary) (core.Estimate, error) {
	sa, ok := a.(*GHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	sb, ok := b.(*GHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	if sa.level != g.grid.Level() || sb.level != g.grid.Level() {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	var ip float64
	for idx := range sa.cells {
		// Each pair of terms is added before the two pairs are, so swapping
		// a and b swaps the operands of every addition: the same bits.
		ca, cb := &sa.cells[idx], &sb.cells[idx]
		ip += (ca.C*cb.O + cb.C*ca.O) + (ca.H*cb.V + cb.H*ca.V)
	}
	recordEstimate("gh")
	return core.NewEstimate(ip/4, sa.n, sb.n), nil
}

// BasicGH is the unrefined Geometric Histogram of §3.2.1: it keeps integer
// *counts* per cell — corners (C), intersecting MBRs (I), horizontal edges
// passing through (H), vertical edges passing through (V) — and estimates
// intersection points with Eqn. 4:
//
//	N = Σ (C1·I2 + I1·C2 + V1·H2 + H1·V2)
//
// Basic GH over-counts whenever a cell holds items that do not actually
// interact (false counting) and under- or over-counts around cell-spanning
// geometry (Figure 4); the revised GH fixes both via fractional parameters.
// It is retained for the ablation comparing the two.
type BasicGH struct {
	grid Grid
}

// NewBasicGH returns a basic-GH technique at gridding level h.
func NewBasicGH(level int) (*BasicGH, error) {
	g, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	return &BasicGH{grid: g}, nil
}

// MustBasicGH is NewBasicGH for static levels; it panics on error.
func MustBasicGH(level int) *BasicGH {
	g, err := NewBasicGH(level)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements core.Technique.
func (g *BasicGH) Name() string { return fmt.Sprintf("BasicGH(h=%d)", g.grid.Level()) }

// Level returns the gridding level.
func (g *BasicGH) Level() int { return g.grid.Level() }

// basicCell carries the §3.2.1 per-cell counts.
type basicCell struct {
	C float64 // corners in the cell
	I float64 // MBRs intersecting the cell
	H float64 // horizontal edges passing through the cell
	V float64 // vertical edges passing through the cell
}

// BasicGHSummary is the basic-GH histogram file for one dataset.
type BasicGHSummary struct {
	name  string
	n     int
	level int
	cells []basicCell
}

// DatasetName implements core.Summary.
func (s *BasicGHSummary) DatasetName() string { return s.name }

// ItemCount implements core.Summary.
func (s *BasicGHSummary) ItemCount() int { return s.n }

// SizeBytes implements core.Summary.
func (s *BasicGHSummary) SizeBytes() int64 { return int64(len(s.cells))*32 + 24 }

// Build implements core.Technique.
func (g *BasicGH) Build(d *dataset.Dataset) (core.Summary, error) {
	start := time.Now()
	defer func() { recordBuild("basicgh", start) }()
	nd := d.Normalize()
	grid := g.grid
	cells := make([]basicCell, grid.Cells())
	for _, r := range nd.Items {
		for _, p := range r.Corners() {
			i, j := grid.CellOf(p.X, p.Y)
			cells[grid.CellIndex(i, j)].C++
		}
		grid.VisitCells(r, func(i, j int, inter geom.Rect) {
			cells[grid.CellIndex(i, j)].I++
		})
		for _, y := range [2]float64{r.MinY, r.MaxY} {
			i0, j := grid.CellOf(r.MinX, y)
			i1, _ := grid.CellOf(r.MaxX, y)
			for i := i0; i <= i1; i++ {
				cell := grid.CellRect(i, j)
				if minf(r.MaxX, cell.MaxX) > maxf(r.MinX, cell.MinX) {
					cells[grid.CellIndex(i, j)].H++
				}
			}
		}
		for _, x := range [2]float64{r.MinX, r.MaxX} {
			i, j0 := grid.CellOf(x, r.MinY)
			_, j1 := grid.CellOf(x, r.MaxY)
			for j := j0; j <= j1; j++ {
				cell := grid.CellRect(i, j)
				if minf(r.MaxY, cell.MaxY) > maxf(r.MinY, cell.MinY) {
					cells[grid.CellIndex(i, j)].V++
				}
			}
		}
	}
	return &BasicGHSummary{name: d.Name, n: d.Len(), level: grid.Level(), cells: cells}, nil
}

// Estimate implements core.Technique (Eqn. 4).
func (g *BasicGH) Estimate(a, b core.Summary) (core.Estimate, error) {
	sa, ok := a.(*BasicGHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	sb, ok := b.(*BasicGHSummary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	if sa.level != g.grid.Level() || sb.level != g.grid.Level() {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	var ip float64
	for idx := range sa.cells {
		ca, cb := &sa.cells[idx], &sb.cells[idx]
		ip += ca.C*cb.I + ca.I*cb.C + ca.V*cb.H + ca.H*cb.V
	}
	recordEstimate("basicgh")
	return core.NewEstimate(ip/4, sa.n, sb.n), nil
}
