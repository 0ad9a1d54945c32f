package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialsel/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, geom.UnitSquare); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := New(MaxOrder+1, geom.UnitSquare); err == nil {
		t.Error("order beyond MaxOrder accepted")
	}
	if _, err := New(4, geom.NewRect(0, 0, 0, 1)); err == nil {
		t.Error("zero-area extent accepted")
	}
	if _, err := New(4, geom.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}); err == nil {
		t.Error("invalid extent accepted")
	}
	c, err := New(4, geom.UnitSquare)
	if err != nil {
		t.Fatalf("New(4, unit) failed: %v", err)
	}
	if c.Order() != 4 || c.Side() != 16 {
		t.Errorf("Order/Side = %d/%d, want 4/16", c.Order(), c.Side())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad order")
		}
	}()
	MustNew(0, geom.UnitSquare)
}

// Order-1 curve visits the four quadrants in the canonical order
// (0,0) → (0,1) → (1,1) → (1,0).
func TestOrder1Canonical(t *testing.T) {
	c := MustNew(1, geom.UnitSquare)
	want := [][2]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for d, cell := range want {
		if got := c.Index(cell[0], cell[1]); got != uint64(d) {
			t.Errorf("Index(%d,%d) = %d, want %d", cell[0], cell[1], got, d)
		}
		x, y := c.Cell(uint64(d))
		if x != cell[0] || y != cell[1] {
			t.Errorf("Cell(%d) = (%d,%d), want (%d,%d)", d, x, y, cell[0], cell[1])
		}
	}
}

// TestBijection verifies Index and Cell are inverse bijections over the whole
// grid for a mid-size order.
func TestBijection(t *testing.T) {
	c := MustNew(5, geom.UnitSquare)
	seen := make(map[uint64]bool, 32*32)
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			d := c.Index(x, y)
			if d >= 32*32 {
				t.Fatalf("Index(%d,%d) = %d out of range", x, y, d)
			}
			if seen[d] {
				t.Fatalf("duplicate index %d at (%d,%d)", d, x, y)
			}
			seen[d] = true
			gx, gy := c.Cell(d)
			if gx != x || gy != y {
				t.Fatalf("Cell(Index(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	if len(seen) != 32*32 {
		t.Fatalf("visited %d cells, want 1024", len(seen))
	}
}

// TestIndexMatchesTextbookLoop holds Index, whose loop is written without
// branches, to the textbook step it stands for — quadrant bits, then rot — on
// every cell of a small grid and on random cells of the largest: every caller
// orders by these values, so they must not move by a bit.
func TestIndexMatchesTextbookLoop(t *testing.T) {
	textbook := func(side, x, y uint32) uint64 {
		var d uint64
		for s := side / 2; s > 0; s /= 2 {
			var rx, ry uint32
			if x&s > 0 {
				rx = 1
			}
			if y&s > 0 {
				ry = 1
			}
			d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
			x, y = rot(s, x, y, rx, ry)
		}
		return d
	}
	small := MustNew(6, geom.UnitSquare)
	for x := uint32(0); x < small.Side(); x++ {
		for y := uint32(0); y < small.Side(); y++ {
			if got, want := small.Index(x, y), textbook(small.Side(), x, y); got != want {
				t.Fatalf("order 6: Index(%d,%d) = %d, textbook loop %d", x, y, got, want)
			}
		}
	}
	large := MustNew(MaxOrder, geom.UnitSquare)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		x, y := rng.Uint32()&(large.Side()-1), rng.Uint32()&(large.Side()-1)
		if got, want := large.Index(x, y), textbook(large.Side(), x, y); got != want {
			t.Fatalf("order %d: Index(%d,%d) = %d, textbook loop %d", MaxOrder, x, y, got, want)
		}
	}
}

// TestContinuity verifies consecutive curve positions are grid neighbours —
// the defining locality property of the Hilbert curve.
func TestContinuity(t *testing.T) {
	c := MustNew(6, geom.UnitSquare)
	n := uint64(c.Side()) * uint64(c.Side())
	px, py := c.Cell(0)
	for d := uint64(1); d < n; d++ {
		x, y := c.Cell(d)
		dx, dy := int64(x)-int64(px), int64(y)-int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("positions %d and %d are not neighbours: (%d,%d) -> (%d,%d)",
				d-1, d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestClamping(t *testing.T) {
	c := MustNew(3, geom.UnitSquare)
	// Out-of-grid integer coordinates clamp to the far edge.
	if got, want := c.Index(1000, 1000), c.Index(7, 7); got != want {
		t.Errorf("clamped Index = %d, want %d", got, want)
	}
	// Positions past the end of the curve clamp to the last cell.
	lastX, lastY := c.Cell(63)
	x, y := c.Cell(1 << 40)
	if x != lastX || y != lastY {
		t.Errorf("Cell(huge) = (%d,%d), want (%d,%d)", x, y, lastX, lastY)
	}
	// Points outside the extent clamp to its boundary cells.
	if got, want := c.PointIndex(geom.Point{X: -5, Y: -5}), c.Index(0, 0); got != want {
		t.Errorf("PointIndex(-5,-5) = %d, want %d", got, want)
	}
	if got, want := c.PointIndex(geom.Point{X: 5, Y: 5}), c.Index(7, 7); got != want {
		t.Errorf("PointIndex(5,5) = %d, want %d", got, want)
	}
}

func TestPointIndexScalesToExtent(t *testing.T) {
	extent := geom.NewRect(100, 200, 300, 400)
	c := MustNew(4, extent)
	unit := MustNew(4, geom.UnitSquare)
	// A point at a relative position within the custom extent must map to the
	// same cell as the equivalent relative point in the unit square.
	got := c.PointIndex(geom.Point{X: 150, Y: 350})
	want := unit.PointIndex(geom.Point{X: 0.25, Y: 0.75})
	if got != want {
		t.Errorf("scaled PointIndex = %d, want %d", got, want)
	}
}

func TestRectIndexUsesCenter(t *testing.T) {
	c := MustNew(4, geom.UnitSquare)
	r := geom.NewRect(0.1, 0.1, 0.3, 0.3)
	if got, want := c.RectIndex(r), c.PointIndex(geom.Point{X: 0.2, Y: 0.2}); got != want {
		t.Errorf("RectIndex = %d, want center index %d", got, want)
	}
}

// TestPropLocality spot-checks locality: two points in the same fine grid
// cell always share a Hilbert index.
func TestPropLocality(t *testing.T) {
	c := MustNew(8, geom.UnitSquare)
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		// Nudge within the same cell (cell width is 1/256).
		eps := 1.0 / 1024
		q := geom.Point{X: p.X + eps*rng.Float64(), Y: p.Y + eps*rng.Float64()}
		cellP := [2]uint32{uint32(p.X * 256), uint32(p.Y * 256)}
		cellQ := [2]uint32{uint32(q.X * 256), uint32(q.Y * 256)}
		if cellP != cellQ {
			return true // nudge crossed a boundary; nothing to assert
		}
		return c.PointIndex(p) == c.PointIndex(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkIndex draws its cells at random, as the items of a dataset are:
// which quadrant a cell falls in at each level is then unpredictable, which is
// what Index's branch-free loop is written for (a sequential scan of the grid,
// whose quadrant branches predict perfectly, flatters a branchy loop 3×).
func BenchmarkIndex(b *testing.B) {
	c := MustNew(16, geom.UnitSquare)
	rng := rand.New(rand.NewSource(1))
	cells := make([]uint32, 1<<16)
	for i := range cells {
		cells[i] = rng.Uint32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		v := cells[i&(len(cells)-1)]
		sum += c.Index(v&0xFFFF, v>>16)
	}
	indexSink = sum
}

var indexSink uint64
