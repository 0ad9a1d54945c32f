package datagen

import (
	"math"
	"testing"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// validate checks the universal generator contract: requested cardinality,
// unit-square extent, all items valid and inside the extent.
func validate(t *testing.T, d *dataset.Dataset, wantN int) {
	t.Helper()
	if d.Len() != wantN {
		t.Fatalf("%s: Len = %d, want %d", d.Name, d.Len(), wantN)
	}
	if d.Extent != geom.UnitSquare {
		t.Fatalf("%s: extent = %v", d.Name, d.Extent)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
}

func TestUniform(t *testing.T) {
	d := Uniform("u", 5000, 0.01, 1)
	validate(t, d, 5000)
	// Centers should be roughly uniform: each quadrant holds ~25%.
	quad := [4]int{}
	for _, r := range d.Items {
		c := r.Center()
		i := 0
		if c.X > 0.5 {
			i |= 1
		}
		if c.Y > 0.5 {
			i |= 2
		}
		quad[i]++
	}
	for i, n := range quad {
		frac := float64(n) / 5000
		if frac < 0.2 || frac > 0.3 {
			t.Errorf("quadrant %d holds %.1f%%, want ~25%%", i, frac*100)
		}
	}
	// Sizes bounded by maxSize.
	for _, r := range d.Items {
		if r.Width() > 0.01+1e-12 || r.Height() > 0.01+1e-12 {
			t.Fatalf("item exceeds maxSize: %v", r)
		}
	}
}

func TestClusterConcentration(t *testing.T) {
	d := Cluster("c", 5000, 0.4, 0.7, 0.1, 0.01, 2)
	validate(t, d, 5000)
	near := 0
	for _, r := range d.Items {
		c := r.Center()
		dx, dy := c.X-0.4, c.Y-0.7
		if math.Hypot(dx, dy) < 0.25 { // ~2.5 sigma
			near++
		}
	}
	if frac := float64(near) / 5000; frac < 0.9 {
		t.Errorf("only %.1f%% of items within 2.5σ of cluster center", frac*100)
	}
}

func TestMultiClusterSkew(t *testing.T) {
	d := MultiCluster("m", 5000, 4, 0.03, 0.01, 3)
	validate(t, d, 5000)
	// Multi-cluster data must be substantially more skewed than uniform:
	// measure occupancy of a 10x10 grid; many cells should be near-empty.
	var grid [100]int
	for _, r := range d.Items {
		c := r.Center()
		gx := int(math.Min(c.X*10, 9))
		gy := int(math.Min(c.Y*10, 9))
		grid[gy*10+gx]++
	}
	empty := 0
	for _, n := range grid {
		if n < 5 {
			empty++
		}
	}
	if empty < 30 {
		t.Errorf("only %d/100 near-empty cells; data not clustered enough", empty)
	}
}

func TestDiagonalCorrelation(t *testing.T) {
	d := Diagonal("d", 5000, 0.05, 0.01, 4)
	validate(t, d, 5000)
	onBand := 0
	for _, r := range d.Items {
		c := r.Center()
		if math.Abs(c.X-c.Y) < 0.2 {
			onBand++
		}
	}
	if frac := float64(onBand) / 5000; frac < 0.9 {
		t.Errorf("only %.1f%% of items near the diagonal", frac*100)
	}
}

func TestPolylineTraceShape(t *testing.T) {
	d := PolylineTrace("p", 5000, 20, 0.005, 5)
	validate(t, d, 5000)
	// Segment MBRs are small and thin: average of max(w,h) near stepLen,
	// and min dimension typically much smaller than max dimension.
	var sumMax float64
	thin := 0
	for _, r := range d.Items {
		w, h := r.Width(), r.Height()
		sumMax += math.Max(w, h)
		if math.Min(w, h) < math.Max(w, h) {
			thin++
		}
	}
	avgMax := sumMax / 5000
	if avgMax > 0.05 {
		t.Errorf("segments too large: avg max-dim = %g", avgMax)
	}
	if float64(thin)/5000 < 0.95 {
		t.Errorf("segments not elongated: only %d/5000 thin", thin)
	}
	// walks<1 is coerced to 1 rather than panicking.
	d = PolylineTrace("one", 50, 0, 0.005, 6)
	validate(t, d, 50)
}

func TestPolygonTilingCoversSpace(t *testing.T) {
	d := PolygonTiling("t", 2000, 7)
	validate(t, d, 2000)
	// Tiles jointly cover most of the extent...
	var total float64
	for _, r := range d.Items {
		total += r.Area()
	}
	if total < 0.75 {
		t.Errorf("tiling covers only %.0f%% of extent", total*100)
	}
	// ...with minimal pairwise overlap (shrunken split cells cannot overlap).
	// Check a sample of pairs.
	overlaps := 0
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if d.Items[i].IntersectsOpen(d.Items[j]) {
				overlaps++
			}
		}
	}
	if overlaps > 0 {
		t.Errorf("found %d overlapping tile pairs, want 0", overlaps)
	}
	// Size variance: smallest tiles much smaller than largest (density skew).
	minA, maxA := math.Inf(1), 0.0
	for _, r := range d.Items {
		a := r.Area()
		minA = math.Min(minA, a)
		maxA = math.Max(maxA, a)
	}
	if maxA/minA < 10 {
		t.Errorf("tile sizes too homogeneous: min=%g max=%g", minA, maxA)
	}
}

func TestPointsAreDegenerate(t *testing.T) {
	d := Points("pt", 3000, 10, 0.03, 8)
	validate(t, d, 3000)
	for _, r := range d.Items {
		if r.Area() != 0 || r.Width() != 0 || r.Height() != 0 {
			t.Fatalf("non-degenerate point: %v", r)
		}
	}
}

func TestHeavyTailedPolygons(t *testing.T) {
	d := HeavyTailedPolygons("hp", 5000, 10, 0.05, 0.002, 1.4, 9)
	validate(t, d, 5000)
	// Heavy tail: the largest item should dominate the median by a wide
	// margin, and the cap must hold.
	var maxDim float64
	small := 0
	for _, r := range d.Items {
		m := math.Max(r.Width(), r.Height())
		maxDim = math.Max(maxDim, m)
		if m < 0.01 {
			small++
		}
	}
	if maxDim > 0.3+1e-9 {
		t.Errorf("size cap violated: %g", maxDim)
	}
	if maxDim < 0.05 {
		t.Errorf("no large polygons generated: max dim %g", maxDim)
	}
	if float64(small)/5000 < 0.5 {
		t.Errorf("tail not heavy: only %d/5000 small items", small)
	}
}

func TestDeterminism(t *testing.T) {
	a := Uniform("a", 1000, 0.01, 42)
	b := Uniform("b", 1000, 0.01, 42)
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("same seed produced different item %d", i)
		}
	}
	c := Uniform("c", 1000, 0.01, 43)
	same := 0
	for i := range a.Items {
		if a.Items[i] == c.Items[i] {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestPaperPairs(t *testing.T) {
	pairs := PaperPairs(0.002)
	if len(pairs) != 4 {
		t.Fatalf("PaperPairs returned %d pairs", len(pairs))
	}
	wantNames := []string{"TS-TCB", "CAS-CAR", "SP-SPG", "SCRC-SURA"}
	for i, p := range pairs {
		if p.Name != wantNames[i] {
			t.Errorf("pair %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if err := p.A.Validate(); err != nil {
			t.Errorf("%s A: %v", p.Name, err)
		}
		if err := p.B.Validate(); err != nil {
			t.Errorf("%s B: %v", p.Name, err)
		}
	}
	// Scaled cardinality ratios follow the paper (B of CAS-CAR is the
	// biggest dataset).
	car := pairs[1].B
	for _, p := range pairs {
		if p.A.Len() > car.Len() || (p.B != car && p.B.Len() > car.Len()) {
			t.Errorf("CAR is not the largest dataset at fixed scale")
		}
	}
}

func TestScaledFloor(t *testing.T) {
	if got := scaled(1000, 0.00001); got != 100 {
		t.Fatalf("scaled floor = %d, want 100", got)
	}
	if got := scaled(1000, 0.5); got != 500 {
		t.Fatalf("scaled(1000, .5) = %d, want 500", got)
	}
}

func TestPairByName(t *testing.T) {
	p, err := PairByName("SP-SPG", 0.002)
	if err != nil || p.Name != "SP-SPG" {
		t.Fatalf("PairByName = %v, %v", p, err)
	}
	if _, err := PairByName("nope", 0.002); err == nil {
		t.Fatal("unknown pair accepted")
	}
}

func TestClampRect(t *testing.T) {
	r := clampRect(geom.Rect{MinX: -1, MinY: 0.5, MaxX: 2, MaxY: 3})
	if r != geom.NewRect(0, 0.5, 1, 1) {
		t.Fatalf("clampRect = %v", r)
	}
	if !r.Valid() {
		t.Fatal("clamped rect invalid")
	}
}

// TestGenerate: the one dispatch knows all eight kinds, names the dataset as
// asked, honours the item-size bound for the kinds that take one, and rejects
// anything else.
func TestGenerate(t *testing.T) {
	for _, kind := range []string{"uniform", "cluster", "multicluster", "diagonal", "polyline", "tiling", "points", "polygons"} {
		d, err := Generate(kind, "t_"+kind, 400, ItemSize, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		validate(t, d, 400)
		if d.Name != "t_"+kind {
			t.Errorf("%s: dataset named %q", kind, d.Name)
		}
	}
	for _, kind := range []string{"uniform", "cluster", "multicluster", "diagonal"} {
		d, _ := Generate(kind, kind, 400, 0.001, 3)
		for _, r := range d.Items {
			if r.Width() > 0.001+1e-12 || r.Height() > 0.001+1e-12 {
				t.Fatalf("%s: item %v exceeds the 0.001 size bound", kind, r)
			}
		}
	}
	if _, err := Generate("voronoi", "v", 10, ItemSize, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}
