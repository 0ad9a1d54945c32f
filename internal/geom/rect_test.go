package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}
	if r != want {
		t.Fatalf("NewRect(3,4,1,2) = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatalf("normalized rect reported invalid: %v", r)
	}
}

func TestValid(t *testing.T) {
	tests := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 1, 1}, true},
		{Rect{}, true}, // degenerate point at origin
		{Rect{1, 0, 0, 1}, false},
		{Rect{0, 1, 1, 0}, false},
		{Rect{math.NaN(), 0, 1, 1}, false},
		{Rect{0, 0, math.Inf(1), 1}, false},
	}
	for _, tt := range tests {
		if got := tt.r.Valid(); got != tt.want {
			t.Errorf("%v.Valid() = %v, want %v", tt.r, got, tt.want)
		}
	}
}

func TestBasicMeasures(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 6}
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %g, want 3", got)
	}
	if got := r.Height(); got != 4 {
		t.Errorf("Height = %g, want 4", got)
	}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %g, want 12", got)
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v, want (2.5,4)", got)
	}
}

func TestIntersects(t *testing.T) {
	base := NewRect(0, 0, 2, 2)
	tests := []struct {
		name   string
		other  Rect
		closed bool
		open   bool
	}{
		{"overlapping", NewRect(1, 1, 3, 3), true, true},
		{"touching edge", NewRect(2, 0, 4, 2), true, false},
		{"touching corner", NewRect(2, 2, 3, 3), true, false},
		{"disjoint", NewRect(3, 3, 4, 4), false, false},
		{"contained", NewRect(0.5, 0.5, 1.5, 1.5), true, true},
		{"identical", base, true, true},
	}
	for _, tt := range tests {
		if got := base.Intersects(tt.other); got != tt.closed {
			t.Errorf("%s: Intersects = %v, want %v", tt.name, got, tt.closed)
		}
		if got := base.IntersectsOpen(tt.other); got != tt.open {
			t.Errorf("%s: IntersectsOpen = %v, want %v", tt.name, got, tt.open)
		}
	}
}

func TestContains(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.Contains(NewRect(1, 1, 9, 9)) {
		t.Error("strictly inner rect not contained")
	}
	if !outer.Contains(outer) {
		t.Error("rect does not contain itself")
	}
	if outer.Contains(NewRect(1, 1, 11, 9)) {
		t.Error("overhanging rect reported contained")
	}
	if !outer.ContainsPoint(Point{0, 0}) {
		t.Error("boundary point not contained (closed semantics)")
	}
	if outer.ContainsPointOpen(Point{0, 5}) {
		t.Error("boundary point contained under open semantics")
	}
}

func TestIntersection(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(1, 1, 3, 3)
	inter, ok := a.Intersection(b)
	if !ok || inter != NewRect(1, 1, 2, 2) {
		t.Fatalf("Intersection = %v,%v; want [1,2]x[1,2],true", inter, ok)
	}
	if _, ok := a.Intersection(NewRect(5, 5, 6, 6)); ok {
		t.Fatal("disjoint rects reported intersecting")
	}
	// Touching rectangles intersect in a degenerate rectangle.
	inter, ok = a.Intersection(NewRect(2, 0, 4, 2))
	if !ok || inter.Area() != 0 || inter.Width() != 0 {
		t.Fatalf("touching intersection = %v,%v; want degenerate,true", inter, ok)
	}
}

func TestIntersectionArea(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	tests := []struct {
		b    Rect
		want float64
	}{
		{NewRect(1, 1, 3, 3), 1},
		{NewRect(0, 0, 2, 2), 4},
		{NewRect(2, 2, 3, 3), 0},
		{NewRect(5, 5, 6, 6), 0},
		{NewRect(0.5, 0.5, 1.5, 1.5), 1},
	}
	for _, tt := range tests {
		if got := a.IntersectionArea(tt.b); got != tt.want {
			t.Errorf("IntersectionArea(%v) = %g, want %g", tt.b, got, tt.want)
		}
	}
}

func TestUnionAndEnlargement(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(2, 2, 3, 3)
	u := a.Union(b)
	if u != NewRect(0, 0, 3, 3) {
		t.Fatalf("Union = %v, want [0,3]x[0,3]", u)
	}
	if got := a.Enlargement(b); got != 8 {
		t.Fatalf("Enlargement = %g, want 8", got)
	}
	if got := a.Enlargement(NewRect(0.2, 0.2, 0.8, 0.8)); got != 0 {
		t.Fatalf("Enlargement for contained rect = %g, want 0", got)
	}
}

func TestExpand(t *testing.T) {
	r := NewRect(1, 1, 3, 3)
	if got := r.Expand(0.5); got != NewRect(0.5, 0.5, 3.5, 3.5) {
		t.Fatalf("Expand(0.5) = %v", got)
	}
	// Over-shrinking collapses to the center instead of inverting.
	if got := r.Expand(-2); got != NewRect(2, 2, 2, 2) {
		t.Fatalf("Expand(-2) = %v, want point at center", got)
	}
}

func TestTranslate(t *testing.T) {
	r := NewRect(0, 0, 1, 2)
	if got := r.Translate(5, -1); got != NewRect(5, -1, 6, 1) {
		t.Fatalf("Translate = %v", got)
	}
}

// randRect produces a random valid rectangle inside the unit square.
func randRect(rng *rand.Rand) Rect {
	x, y := rng.Float64(), rng.Float64()
	w, h := rng.Float64()*(1-x), rng.Float64()*(1-y)
	return Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func TestPropIntersectionSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		return a.Intersects(b) == b.Intersects(a) &&
			a.IntersectionArea(b) == b.IntersectionArea(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropUnionContainsBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropIntersectionWithinBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		inter, ok := a.Intersection(b)
		if !ok {
			return !a.Intersects(b)
		}
		return a.Contains(inter) && b.Contains(inter) &&
			inter.Area() == a.IntersectionArea(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropAreaNonNegativeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		if a.Area() < 0 || a.Enlargement(b) < 0 {
			return false
		}
		// Intersection area never exceeds either operand's area.
		ia := a.IntersectionArea(b)
		return ia <= a.Area()+1e-12 && ia <= b.Area()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	if s := NewRect(0, 0, 1, 2).String(); s != "[0,1]x[0,2]" {
		t.Errorf("Rect.String() = %q", s)
	}
	if s := (Point{1, 2}).String(); s != "(1,2)" {
		t.Errorf("Point.String() = %q", s)
	}
}

func TestEqual(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	if !a.Equal(a) || a.Equal(NewRect(0, 0, 1, 2)) {
		t.Fatal("Equal semantics wrong")
	}
}
