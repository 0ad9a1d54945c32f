package histogram

import (
	"fmt"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// GHBuilder maintains a Geometric Histogram incrementally. Because every GH
// cell parameter is a plain sum of per-item contributions, inserting an item
// adds its contributions and deleting subtracts them — no rebuild, no access
// to other items. This is what makes GH viable as live database statistics:
// a table under OLTP-style churn keeps its histogram current in O(cells
// spanned) per update, unlike sampling (which must re-draw) and unlike
// techniques whose buckets depend on data order.
//
// A GHBuilder is not safe for concurrent use.
type GHBuilder struct {
	grid  Grid
	name  string
	n     int
	cells []ghSums
}

// NewGHBuilder returns an empty builder for the named dataset at gridding
// level h. Items added later must already be normalized to the unit square
// (use Dataset.Normalize before feeding items from a raw extent).
func NewGHBuilder(name string, level int) (*GHBuilder, error) {
	g, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	return &GHBuilder{grid: g, name: name, cells: make([]ghSums, g.Cells())}, nil
}

// GHBuilderFrom seeds a builder with an existing dataset (normalized
// first, unless its extent already is the unit square). It runs GH.Build's
// accumulation, sharded the same way, so the builder holds the cells
// GH.Build computes and Add of every item would reach.
func GHBuilderFrom(d *dataset.Dataset, level int) (*GHBuilder, error) {
	grid, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	b := &GHBuilder{grid: grid, name: d.Name}
	items := unitItems(d)
	for _, r := range items {
		if err := b.check(r); err != nil {
			return nil, err
		}
	}
	b.cells, b.n = sumGH(grid, items, shardWorkers(len(items))), len(items)
	return b, nil
}

// Len returns the number of items currently reflected in the histogram.
func (b *GHBuilder) Len() int { return b.n }

// Level returns the gridding level.
func (b *GHBuilder) Level() int { return b.grid.Level() }

// Add folds one rectangle into the histogram.
func (b *GHBuilder) Add(r geom.Rect) error {
	if err := b.check(r); err != nil {
		return err
	}
	applyGHItem(b.grid, r, b.cells, +1)
	b.n++
	return nil
}

// Remove subtracts one rectangle's contributions. The caller must pass a
// rectangle previously Added. The builder cannot verify membership, but every
// cell sum is exact, so a removal that drives any of a cell's C, O, H or V
// below zero proves the rectangle was never added: Remove then adds it back,
// which restores every cell exactly, and returns an error. This also refuses
// any Remove on an empty builder.
func (b *GHBuilder) Remove(r geom.Rect) error {
	if err := b.check(r); err != nil {
		return err
	}
	applyGHItem(b.grid, r, b.cells, -1)
	i0, i1, j0, j1 := b.grid.CellRange(r) // every cell r contributes to
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			if c := b.cells[b.grid.CellIndex(i, j)]; c.C < 0 || c.O < 0 || c.H < 0 || c.V < 0 {
				applyGHItem(b.grid, r, b.cells, +1)
				return fmt.Errorf("histogram: Remove of %v would leave cell (%d,%d) negative; rectangle was never added", r, i, j)
			}
		}
	}
	b.n--
	return nil
}

func (b *GHBuilder) check(r geom.Rect) error {
	if !r.Valid() || !geom.UnitSquare.Contains(r) {
		return fmt.Errorf("histogram: item %v not normalized to the unit square", r)
	}
	return nil
}

// Summary snapshots the current state as an immutable GHSummary usable with
// GH.Estimate at the same level. The cells are converted into a new table,
// so later updates to the builder do not affect the snapshot.
func (b *GHBuilder) Summary() *GHSummary {
	return summaryOf(b.name, b.n, b.grid.Level(), b.cells)
}

// applyGHItem adds (sign=+1) or removes (sign=−1) one item's contributions,
// each rounded once to a whole number of units (fixed). Corner points each
// land in exactly one cell (degenerate rectangles contribute coincident
// corners — the correct limit behaviour, since a point "intersecting" a
// rectangle is all four of its corners doing so); area ratios accumulate per
// overlapped cell; each horizontal edge lives in one cell row with its
// x-extent possibly spanning many columns, and symmetrically for vertical
// edges.
func applyGHItem(grid Grid, r geom.Rect, cells []ghSums, sign int64) {
	cellArea := grid.CellArea()
	cw, ch := grid.CellWidth(), grid.CellHeight()
	for _, p := range r.Corners() {
		i, j := grid.CellOf(p.X, p.Y)
		cells[grid.CellIndex(i, j)].C += sign
	}
	grid.VisitCells(r, func(i, j int, inter geom.Rect) {
		cells[grid.CellIndex(i, j)].O += sign * fixed(inter.Area()/cellArea)
	})
	for _, y := range [2]float64{r.MinY, r.MaxY} {
		i0, j := grid.CellOf(r.MinX, y)
		i1, _ := grid.CellOf(r.MaxX, y)
		for i := i0; i <= i1; i++ {
			cell := grid.CellRect(i, j)
			lo := maxf(r.MinX, cell.MinX)
			hi := minf(r.MaxX, cell.MaxX)
			if hi > lo {
				cells[grid.CellIndex(i, j)].H += sign * fixed((hi-lo)/cw)
			}
		}
	}
	for _, x := range [2]float64{r.MinX, r.MaxX} {
		i, j0 := grid.CellOf(x, r.MinY)
		_, j1 := grid.CellOf(x, r.MaxY)
		for j := j0; j <= j1; j++ {
			cell := grid.CellRect(i, j)
			lo := maxf(r.MinY, cell.MinY)
			hi := minf(r.MaxY, cell.MaxY)
			if hi > lo {
				cells[grid.CellIndex(i, j)].V += sign * fixed((hi-lo)/ch)
			}
		}
	}
}
