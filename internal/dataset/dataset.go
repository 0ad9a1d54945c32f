// Package dataset defines the Dataset type — a named collection of MBRs over
// a spatial extent — together with the summary statistics the estimators
// consume, a compact binary file format, and utilities for normalizing data
// into the unit square.
//
// A Dataset is the unit of input for every join and estimator in this
// library: both spatial-join operands, every sample, and every histogram are
// derived from one.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
	"spatialsel/internal/obs"
)

var mHilbertSorts = obs.Default.Counter("sample_hilbert_sorts_total",
	"Hilbert orders computed: one per dataset value that sorted sampling touched.")

// Dataset is an immutable-by-convention collection of MBRs. Name is a
// human-readable identifier used in experiment output; Extent is the spatial
// universe the items live in (items may touch but not exceed it after
// Normalize). A Dataset is handled by pointer: it carries the once-guard of
// its Hilbert order and must not be copied.
type Dataset struct {
	Name   string
	Extent geom.Rect
	Items  []geom.Rect

	hilbertOnce  sync.Once
	hilbertOrder []int32
}

// New returns a dataset over the given extent. The items slice is used
// directly (not copied); callers that mutate it afterwards violate the
// immutability convention.
func New(name string, extent geom.Rect, items []geom.Rect) *Dataset {
	return &Dataset{Name: name, Extent: extent, Items: items}
}

// Len returns the number of items.
func (d *Dataset) Len() int { return len(d.Items) }

// HilbertOrder returns the item indices sorted by the Hilbert value of each
// item (a hilbert.MaxOrder curve over Extent, the unit square when Extent has
// no area), ties broken by index, so the permutation is a function of the
// data alone. It is computed by the first call — concurrent first callers
// wait for the one sort — and lives as long as the dataset, which is what
// makes it safe to keep: Extent and Items do not change after construction.
// The slice is shared and must not be modified. built is the time this call
// spent sorting, 0 on a lookup, for callers that account build time apart
// from lookup time.
func (d *Dataset) HilbertOrder() (order []int32, built time.Duration) {
	d.hilbertOnce.Do(func() {
		start := time.Now()
		d.hilbertOrder = hilbertOrder(d.Extent, d.Items)
		mHilbertSorts.Inc()
		built = time.Since(start)
	})
	return d.hilbertOrder, built
}

func hilbertOrder(extent geom.Rect, items []geom.Rect) []int32 {
	if extent.Area() <= 0 {
		extent = geom.UnitSquare
	}
	curve := hilbert.MustNew(hilbert.MaxOrder, extent)
	type keyed struct {
		key uint64
		idx int32
	}
	keys := make([]keyed, len(items))
	for i, r := range items {
		keys[i] = keyed{curve.RectIndex(r), int32(i)}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = k.idx
	}
	return order
}

// Clone returns a deep copy of d.
func (d *Dataset) Clone() *Dataset {
	items := make([]geom.Rect, len(d.Items))
	copy(items, d.Items)
	return &Dataset{Name: d.Name, Extent: d.Extent, Items: items}
}

// Validate checks structural invariants: a valid extent with positive area,
// and every item valid and contained in the extent.
func (d *Dataset) Validate() error {
	if !d.Extent.Valid() || d.Extent.Area() <= 0 {
		return fmt.Errorf("dataset %q: invalid extent %v", d.Name, d.Extent)
	}
	for i, r := range d.Items {
		if !r.Valid() {
			return fmt.Errorf("dataset %q: item %d invalid: %v", d.Name, i, r)
		}
		if !d.Extent.Contains(r) {
			return fmt.Errorf("dataset %q: item %d %v outside extent %v", d.Name, i, r, d.Extent)
		}
	}
	return nil
}

// MBR returns the minimum bounding rectangle of all items, and false when the
// dataset is empty.
func (d *Dataset) MBR() (geom.Rect, bool) {
	if len(d.Items) == 0 {
		return geom.Rect{}, false
	}
	m := d.Items[0]
	for _, r := range d.Items[1:] {
		m = m.Union(r)
	}
	return m, true
}

// Normalize returns a copy of d affinely rescaled so that its extent becomes
// the unit square. All estimators in this library operate on normalized
// datasets so that gridding levels are comparable across workloads, matching
// the paper's fixed spatial extent.
func (d *Dataset) Normalize() *Dataset {
	w, h := d.Extent.Width(), d.Extent.Height()
	if w <= 0 || h <= 0 {
		return d.Clone()
	}
	items := make([]geom.Rect, len(d.Items))
	for i, r := range d.Items {
		items[i] = NormalizeRect(d.Extent, r)
	}
	return &Dataset{Name: d.Name, Extent: geom.UnitSquare, Items: items}
}

// NormalizeRect maps r from the coordinate space of extent onto the unit
// square extent spans, extent having positive width and height. It is the
// one spelling of the map: Normalize applies it to a registered dataset and
// the ingest path to every rectangle inserted later, so the two land on
// bit-identical coordinates.
func NormalizeRect(extent, r geom.Rect) geom.Rect {
	w, h := extent.Width(), extent.Height()
	return geom.Rect{
		MinX: (r.MinX - extent.MinX) / w,
		MinY: (r.MinY - extent.MinY) / h,
		MaxX: (r.MaxX - extent.MinX) / w,
		MaxY: (r.MaxY - extent.MinY) / h,
	}
}

// Stats holds the whole-dataset summary statistics used by the parametric
// estimator of Aref and Samet (paper Eqn. 1): N (cardinality), C (coverage =
// total item area / extent area), and the average item width and height.
type Stats struct {
	N         int     // number of items
	Coverage  float64 // sum of item areas / extent area
	AvgWidth  float64 // mean item width
	AvgHeight float64 // mean item height
	AvgArea   float64 // mean item area
	MaxWidth  float64
	MaxHeight float64
}

// ComputeStats scans the dataset once and returns its summary statistics.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{N: len(d.Items)}
	if s.N == 0 {
		return s
	}
	var sumW, sumH, sumA float64
	for _, r := range d.Items {
		w, h := r.Width(), r.Height()
		sumW += w
		sumH += h
		sumA += w * h
		s.MaxWidth = math.Max(s.MaxWidth, w)
		s.MaxHeight = math.Max(s.MaxHeight, h)
	}
	n := float64(s.N)
	s.AvgWidth = sumW / n
	s.AvgHeight = sumH / n
	s.AvgArea = sumA / n
	if a := d.Extent.Area(); a > 0 {
		s.Coverage = sumA / a
	}
	return s
}

// String implements fmt.Stringer with a one-line summary.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s(n=%d, extent=%v)", d.Name, len(d.Items), d.Extent)
}
