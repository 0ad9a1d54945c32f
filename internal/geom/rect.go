// Package geom provides the planar geometry primitives used throughout the
// library: points, axis-parallel rectangles (minimum bounding rectangles,
// MBRs), and the intersection predicates and constructions that the spatial
// join and its selectivity estimators are built on.
//
// All coordinates are float64. Rectangles are closed: two rectangles that
// share only a boundary point are considered intersecting, matching the
// filter-step semantics of the paper (pairs of touching MBRs must survive the
// filter step because the underlying exact geometries may intersect).
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Rect is a closed, axis-parallel rectangle, the Minimum Bounding Rectangle
// (MBR) abstraction of a spatial object. The zero value is the degenerate
// rectangle at the origin. Rectangles with MinX > MaxX or MinY > MaxY are
// invalid; constructors never produce them.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle with the given corners, swapping coordinates
// if necessary so that the result is valid regardless of argument order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// UnitSquare is the [0,1]×[0,1] spatial extent used as the default universe.
var UnitSquare = Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

// Valid reports whether r is a well-formed rectangle (Min ≤ Max on both axes
// and all coordinates finite).
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		!math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY) &&
		!math.IsInf(r.MinX, 0) && !math.IsInf(r.MinY, 0) &&
		!math.IsInf(r.MaxX, 0) && !math.IsInf(r.MaxY, 0)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles (lines, points) have
// area zero but still participate in intersection tests.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Corners returns the four corner points of r in the order
// (MinX,MinY), (MaxX,MinY), (MaxX,MaxY), (MinX,MaxY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// Intersects reports whether r and s share at least one point (closed
// rectangle semantics: touching boundaries intersect).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// IntersectsOpen reports whether r and s share interior area (strictly
// overlapping, not merely touching).
func (r Rect) IntersectsOpen(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX &&
		r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Contains reports whether s lies entirely within r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether p lies within r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// ContainsPointOpen reports whether p lies strictly inside r.
func (r Rect) ContainsPointOpen(p Point) bool {
	return r.MinX < p.X && p.X < r.MaxX && r.MinY < p.Y && p.Y < r.MaxY
}

// Intersection returns the rectangle common to r and s, and whether it is
// non-empty. When r and s merely touch, the result is a degenerate (zero
// area) rectangle and ok is true.
func (r Rect) Intersection(s Rect) (inter Rect, ok bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}, true
}

// IntersectionArea returns the area shared by r and s (zero if disjoint).
func (r Rect) IntersectionArea(s Rect) float64 {
	w := math.Min(r.MaxX, s.MaxX) - math.Max(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := math.Min(r.MaxY, s.MaxY) - math.Max(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Enlargement returns the increase in area required for r to cover s. It is
// the standard R-tree insertion heuristic quantity and is always ≥ 0.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Expand returns r grown by d on every side. A negative d shrinks r; if the
// shrink would invert the rectangle, the degenerate rectangle at the center
// is returned.
func (r Rect) Expand(d float64) Rect {
	out := Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
	if out.MinX > out.MaxX {
		c := (r.MinX + r.MaxX) / 2
		out.MinX, out.MaxX = c, c
	}
	if out.MinY > out.MaxY {
		c := (r.MinY + r.MaxY) / 2
		out.MinY, out.MaxY = c, c
	}
	return out
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{MinX: r.MinX + dx, MinY: r.MinY + dy, MaxX: r.MaxX + dx, MaxY: r.MaxY + dy}
}

// Equal reports whether r and s have identical coordinates.
func (r Rect) Equal(s Rect) bool { return r == s } //lint:ignore floateq bit-exact identity is this method's documented contract

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }
