// Package hilbert implements the 2-D Hilbert space-filling curve. The curve
// maps cells of a 2^order × 2^order grid to positions along a single
// one-dimensional walk that preserves locality: cells close on the curve are
// close in the plane. The paper uses Hilbert values in two places — Sorted
// Sampling (SS) orders a dataset by the Hilbert values of its items before
// taking every k-th element, and the Kamel–Faloutsos packed R-tree loads
// leaves in Hilbert order.
package hilbert

import (
	"fmt"

	"spatialsel/internal/geom"
)

// Curve is a Hilbert curve over a 2^Order × 2^Order grid mapped onto a given
// spatial extent. The zero value is not usable; construct with New.
type Curve struct {
	order  uint
	side   uint32 // 2^order
	extent geom.Rect
}

// MaxOrder is the largest supported curve order: with 16 bits per axis the
// 1-D index fits comfortably in a uint64.
const MaxOrder = 16

// New returns a Hilbert curve of the given order covering extent. Order must
// be in [1, MaxOrder] and the extent must have positive area.
func New(order uint, extent geom.Rect) (*Curve, error) {
	if order < 1 || order > MaxOrder {
		return nil, fmt.Errorf("hilbert: order %d out of range [1,%d]", order, MaxOrder)
	}
	if !extent.Valid() || extent.Area() <= 0 {
		return nil, fmt.Errorf("hilbert: invalid extent %v", extent)
	}
	return &Curve{order: order, side: 1 << order, extent: extent}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(order uint, extent geom.Rect) *Curve {
	c, err := New(order, extent)
	if err != nil {
		panic(err)
	}
	return c
}

// Order returns the curve's order.
func (c *Curve) Order() uint { return c.order }

// Side returns the grid resolution 2^order along each axis.
func (c *Curve) Side() uint32 { return c.side }

// Index returns the Hilbert index of integer grid cell (x, y). Coordinates
// outside the grid are clamped to its edge.
func (c *Curve) Index(x, y uint32) uint64 {
	if x >= c.side {
		x = c.side - 1
	}
	if y >= c.side {
		y = c.side - 1
	}
	// The loop is rot's step without its branches — which quadrant a point
	// falls in is a coin flip at every level, and this runs per item on every
	// bulk load, pack and sorted sample. Only the bits of x and y below s are
	// read from here on, so flipping a coordinate (s-1-x) is an XOR of those
	// bits, and flip and swap become masks: all ones when they apply.
	var d uint64
	for shift := c.order; shift > 0; shift-- {
		s := uint32(1) << (shift - 1)
		rx, ry := x>>(shift-1)&1, y>>(shift-1)&1
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		swap := ry - 1               // ry == 0
		flip := swap & -rx & (s - 1) // ry == 0 && rx == 1
		x, y = x^flip, y^flip
		t := (x ^ y) & swap
		x, y = x^t, y^t
	}
	return d
}

// Cell inverts Index, returning the grid cell at the given Hilbert position.
// Positions beyond the end of the curve are clamped to the last cell.
func (c *Curve) Cell(d uint64) (x, y uint32) {
	max := uint64(c.side) * uint64(c.side)
	if d >= max {
		d = max - 1
	}
	t := d
	for s := uint32(1); s < c.side; s *= 2 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// rot rotates/flips a quadrant appropriately (the standard Hilbert
// transformation step).
func rot(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// PointIndex returns the Hilbert index of the grid cell containing p,
// clamping points outside the extent to its boundary.
func (c *Curve) PointIndex(p geom.Point) uint64 {
	return c.Index(c.discretize(p.X, c.extent.MinX, c.extent.Width()),
		c.discretize(p.Y, c.extent.MinY, c.extent.Height()))
}

// RectIndex returns the Hilbert index of the grid cell containing the center
// of r. Ordering MBRs by the Hilbert value of their center is the scheme of
// Kamel and Faloutsos used by the paper for both Sorted Sampling and R-tree
// packing.
func (c *Curve) RectIndex(r geom.Rect) uint64 {
	return c.PointIndex(r.Center())
}

func (c *Curve) discretize(v, min, span float64) uint32 {
	if span <= 0 {
		return 0
	}
	f := (v - min) / span
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		return c.side - 1
	}
	return uint32(f * float64(c.side))
}
