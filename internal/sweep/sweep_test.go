package sweep

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialsel/internal/geom"
)

func randRects(n int, seed int64, size float64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		out[i] = geom.NewRect(x, y, x+rng.Float64()*size, y+rng.Float64()*size)
	}
	return out
}

func brute(as, bs []geom.Rect) []Pair {
	var out []Pair
	for i, a := range as {
		for j, b := range bs {
			if a.Intersects(b) {
				out = append(out, Pair{A: i, B: j})
			}
		}
	}
	return out
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	less := func(p []Pair) func(i, j int) bool {
		return func(i, j int) bool {
			if p[i].A != p[j].A {
				return p[i].A < p[j].A
			}
			return p[i].B < p[j].B
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJoinMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		name string
		na   int
		nb   int
		size float64
	}{
		{"sparse", 500, 400, 0.01},
		{"dense", 300, 300, 0.2},
		{"asymmetric", 1000, 50, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := randRects(tc.na, 1, tc.size)
			bs := randRects(tc.nb, 2, tc.size)
			got := Join(as, bs)
			want := brute(as, bs)
			if !pairsEqual(got, want) {
				t.Fatalf("got %d pairs, want %d", len(got), len(want))
			}
			if c := Count(as, bs); c != len(want) {
				t.Fatalf("Count = %d, want %d", c, len(want))
			}
		})
	}
}

func TestJoinEmpty(t *testing.T) {
	rs := randRects(10, 3, 0.1)
	if got := Join(nil, rs); got != nil {
		t.Fatalf("Join(nil, rs) = %v", got)
	}
	if got := Join(rs, nil); got != nil {
		t.Fatalf("Join(rs, nil) = %v", got)
	}
	if got := Count(nil, nil); got != 0 {
		t.Fatalf("Count(nil, nil) = %d", got)
	}
}

func TestJoinTouchingRects(t *testing.T) {
	// Closed semantics: rectangles sharing only an edge are joined.
	as := []geom.Rect{geom.NewRect(0, 0, 1, 1)}
	bs := []geom.Rect{geom.NewRect(1, 0, 2, 1), geom.NewRect(1, 1, 2, 2), geom.NewRect(1.1, 0, 2, 1)}
	got := Join(as, bs)
	want := []Pair{{0, 0}, {0, 1}}
	if !pairsEqual(got, want) {
		t.Fatalf("touching join = %v, want %v", got, want)
	}
}

func TestJoinIdenticalInputs(t *testing.T) {
	rs := randRects(200, 4, 0.1)
	got := Join(rs, rs)
	want := brute(rs, rs)
	if !pairsEqual(got, want) {
		t.Fatalf("self join got %d, want %d", len(got), len(want))
	}
}

func TestSelectivity(t *testing.T) {
	as := []geom.Rect{geom.NewRect(0, 0, 1, 1)}
	bs := []geom.Rect{geom.NewRect(0.5, 0.5, 1, 1), geom.NewRect(2, 2, 3, 3)}
	if got := Selectivity(as, bs); got != 0.5 {
		t.Fatalf("Selectivity = %g, want 0.5", got)
	}
	if got := Selectivity(nil, bs); got != 0 {
		t.Fatalf("Selectivity(nil, bs) = %g", got)
	}
}

func TestPropSweepMatchesBruteClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		n := 20 + rng.Intn(150)
		mk := func() []geom.Rect {
			cx, cy := rng.Float64(), rng.Float64()
			out := make([]geom.Rect, n)
			for i := range out {
				x := cx + rng.NormFloat64()*0.15
				y := cy + rng.NormFloat64()*0.15
				out[i] = geom.NewRect(x, y, x+rng.Float64()*0.1, y+rng.Float64()*0.1)
			}
			return out
		}
		as, bs := mk(), mk()
		return pairsEqual(Join(as, bs), brute(as, bs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSweepJoin(b *testing.B) {
	as := randRects(20000, 7, 0.005)
	bs := randRects(20000, 8, 0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(as, bs)
	}
}
