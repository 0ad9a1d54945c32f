package histogram

import (
	"math"
	"math/rand"
	"testing"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

func TestNewGHValidation(t *testing.T) {
	if _, err := NewGH(-1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := NewBasicGH(MaxLevel + 1); err == nil {
		t.Error("excess level accepted")
	}
	if MustGH(7).Name() != "GH(h=7)" || MustBasicGH(3).Name() != "BasicGH(h=3)" {
		t.Error("names wrong")
	}
	if MustGH(7).Level() != 7 || MustBasicGH(3).Level() != 3 {
		t.Error("levels wrong")
	}
}

func TestMustGHPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGH did not panic")
		}
	}()
	MustGH(-1)
}

func TestMustBasicGHPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBasicGH did not panic")
		}
	}()
	MustBasicGH(-1)
}

// TestGHAggregateInvariants checks the global identities the Table-2
// parameters must satisfy over all cells:
//
//	ΣC = 4N, ΣO = total area / cell area, ΣH = Σ 2·width/cw, ΣV = Σ 2·height/ch.
func TestGHAggregateInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	items := make([]geom.Rect, 500)
	for i := range items {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		items[i] = geom.NewRect(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2)
	}
	d := dataset.New("d", geom.UnitSquare, items)
	level := 4
	s, err := MustGH(level).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	sum := s.(*GHSummary)
	g := MustGrid(level)

	var gotC, gotO, gotH, gotV float64
	for _, c := range sum.cells {
		gotC += c.C
		gotO += c.O
		gotH += c.H
		gotV += c.V
	}
	var area, width, height float64
	for _, r := range items {
		area += r.Area()
		width += r.Width()
		height += r.Height()
	}
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-6*math.Max(1, math.Abs(b)) }
	if gotC != float64(4*len(items)) {
		t.Errorf("ΣC = %g, want %d", gotC, 4*len(items))
	}
	if want := area / g.CellArea(); !approx(gotO, want) {
		t.Errorf("ΣO = %g, want %g", gotO, want)
	}
	if want := 2 * width / g.CellWidth(); !approx(gotH, want) {
		t.Errorf("ΣH = %g, want %g", gotH, want)
	}
	if want := 2 * height / g.CellHeight(); !approx(gotV, want) {
		t.Errorf("ΣV = %g, want %g", gotV, want)
	}
}

// TestGHUnionAdditiveAndSymmetric is the seeded property test of the two
// algebraic facts the served path leans on. Every Table-2 parameter is a sum
// of per-item contributions, so a histogram of a union is the cell-wise sum of
// its parts' — what lets the ingest front maintain GH per record — with ΣC =
// 4·n throughout: C holds whole corners, so it adds exactly, while O, H and V
// hold ratios whose sums round differently when re-associated (1e-9
// relative). And Eqn. 5 is symmetric in its two datasets — the planner keys a
// pair's selectivity from either side — though not bit for bit: per cell,
// Estimate(a, b) adds ...+H1·V2+V1·H2 and Estimate(b, a) ...+V1·H2+H1·V2 onto
// the same prefix, and floating-point addition does not associate.
func TestGHUnionAdditiveAndSymmetric(t *testing.T) {
	// Points, sub-cell boxes and boxes spanning many cells, some on the
	// extent's edge: every branch of the per-item accumulation.
	randomItems := func(rng *rand.Rand, n int) []geom.Rect {
		items := make([]geom.Rect, n)
		for i := range items {
			x, y := rng.Float64(), rng.Float64()
			var w, h float64
			switch rng.Intn(3) {
			case 1:
				w, h = rng.Float64()*0.01, rng.Float64()*0.01
			case 2:
				w, h = rng.Float64()*0.5, rng.Float64()*0.5
			}
			items[i] = geom.NewRect(x, y, math.Min(x+w, 1), math.Min(y+h, 1))
		}
		return items
	}
	relClose := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		level := 1 + rng.Intn(7)
		gh := MustGH(level)
		a := randomItems(rng, 50+rng.Intn(300))
		b := randomItems(rng, 50+rng.Intn(300))
		build := func(name string, items []geom.Rect) *GHSummary {
			s, err := gh.Build(dataset.New(name, geom.UnitSquare, items))
			if err != nil {
				t.Fatalf("seed %d: build %s: %v", seed, name, err)
			}
			sum := s.(*GHSummary)
			var corners float64
			for _, c := range sum.cells {
				corners += c.C
			}
			if corners != float64(4*len(items)) {
				t.Errorf("seed %d level %d: %s has ΣC = %g, want 4·%d", seed, level, name, corners, len(items))
			}
			return sum
		}
		sa, sb := build("a", a), build("b", b)
		union := build("a∪b", append(append([]geom.Rect(nil), a...), b...))
		for i, u := range union.cells {
			ca, cb := sa.cells[i], sb.cells[i]
			if u.C != ca.C+cb.C {
				t.Fatalf("seed %d level %d cell %d: C of the union %g, of the parts %g + %g", seed, level, i, u.C, ca.C, cb.C)
			}
			if !relClose(u.O, ca.O+cb.O, 1e-9) || !relClose(u.H, ca.H+cb.H, 1e-9) || !relClose(u.V, ca.V+cb.V, 1e-9) {
				t.Fatalf("seed %d level %d cell %d: O/H/V of the union %+v, of the parts %+v + %+v", seed, level, i, u, ca, cb)
			}
		}
		ab, err := gh.Estimate(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := gh.Estimate(sb, sa)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(ab.PairCount, ba.PairCount, 1e-12) || !relClose(ab.Selectivity, ba.Selectivity, 1e-12) {
			t.Errorf("seed %d level %d: Estimate(a, b) = %+v, Estimate(b, a) = %+v", seed, level, ab, ba)
		}
	}
}

// TestGHPerCellAgainstBruteForce recomputes C, O, H, V per cell with an
// independent geometric scan.
func TestGHPerCellAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	items := make([]geom.Rect, 200)
	for i := range items {
		x, y := rng.Float64()*0.85, rng.Float64()*0.85
		items[i] = geom.NewRect(x, y, x+rng.Float64()*0.15, y+rng.Float64()*0.15)
	}
	d := dataset.New("d", geom.UnitSquare, items)
	level := 3
	s, _ := MustGH(level).Build(d)
	sum := s.(*GHSummary)
	g := MustGrid(level)
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

	for j := 0; j < g.Side(); j++ {
		for i := 0; i < g.Side(); i++ {
			cell := g.CellRect(i, j)
			var C, O, H, V float64
			for _, r := range items {
				for _, p := range r.Corners() {
					pi, pj := g.CellOf(p.X, p.Y)
					if pi == i && pj == j {
						C++
					}
				}
				O += r.IntersectionArea(cell) / g.CellArea()
				for _, y := range [2]float64{r.MinY, r.MaxY} {
					if _, ej := g.CellOf(r.MinX, y); ej == j {
						if l := math.Min(r.MaxX, cell.MaxX) - math.Max(r.MinX, cell.MinX); l > 0 {
							H += l / g.CellWidth()
						}
					}
				}
				for _, x := range [2]float64{r.MinX, r.MaxX} {
					if ei, _ := g.CellOf(x, r.MinY); ei == i {
						if l := math.Min(r.MaxY, cell.MaxY) - math.Max(r.MinY, cell.MinY); l > 0 {
							V += l / g.CellHeight()
						}
					}
				}
			}
			c := sum.cells[g.CellIndex(i, j)]
			if !approx(c.C, C) || !approx(c.O, O) || !approx(c.H, H) || !approx(c.V, V) {
				t.Fatalf("cell (%d,%d): got C=%g O=%g H=%g V=%g, want C=%g O=%g H=%g V=%g",
					i, j, c.C, c.O, c.H, c.V, C, O, H, V)
			}
		}
	}
}

// figure3A and figure3B form the paper's Figure-3 configuration: a
// corner-overlap pair whose four intersection points land in four distinct
// level-3 cells, with no unrelated features in those cells.
var (
	figure3A = geom.NewRect(0.30, 0.30, 0.55, 0.55)
	figure3B = geom.NewRect(0.45, 0.45, 0.70, 0.70)
)

// TestBasicGHFigure3 reproduces the §3.2.1 worked example: with fine enough
// gridding that each intersection point falls in its own cell, Eqn. 4 counts
// exactly four intersection points, i.e. exactly one joining pair.
func TestBasicGHFigure3(t *testing.T) {
	da := dataset.New("a", geom.UnitSquare, []geom.Rect{figure3A})
	db := dataset.New("b", geom.UnitSquare, []geom.Rect{figure3B})
	tech := MustBasicGH(3)
	sa, _ := tech.Build(da)
	sb, _ := tech.Build(db)
	est, err := tech.Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.PairCount-1) > 1e-12 {
		t.Fatalf("basic GH pair count = %g, want exactly 1", est.PairCount)
	}
	if math.Abs(est.Selectivity-1) > 1e-12 {
		t.Fatalf("selectivity = %g, want 1", est.Selectivity)
	}
}

// TestBasicGHFigure4 reproduces the §3.2.2 inaccuracy taxonomy at a coarse
// grid. The four layouts correspond to Figure 4's panels: a disjoint pair
// falsely counted as 16 intersection points, a parallel pair correctly
// counted as 0, a contained pair multiple-counted as 16 (truth: 4), and a
// crossing pair correctly counted as 4.
func TestBasicGHFigure4(t *testing.T) {
	// All geometry lives inside the single level-0 cell (the unit square).
	tests := []struct {
		name   string
		a, b   geom.Rect
		wantIP float64 // Eqn-4 intersection points at level 0
		trueIP int     // actual intersection points
	}{
		{
			name:   "false counting: disjoint pair in one cell",
			a:      geom.NewRect(0.1, 0.1, 0.2, 0.2),
			b:      geom.NewRect(0.7, 0.7, 0.8, 0.8),
			wantIP: 16, trueIP: 0,
		},
		{
			name:   "parallel bars: correctly zero",
			a:      geom.NewRect(0.1, 0, 0.2, 1), // full-height bar: corners on boundary cells? no — at level 0 corners in cell
			b:      geom.NewRect(0.7, 0, 0.8, 1),
			wantIP: 16, trueIP: 0, // at level 0 even this is falsely counted; see below for the fine-grid fix
		},
		{
			name:   "multiple counting: contained pair",
			a:      geom.NewRect(0.2, 0.2, 0.8, 0.8),
			b:      geom.NewRect(0.4, 0.4, 0.6, 0.6),
			wantIP: 16, trueIP: 4,
		},
		{
			name:   "crossing bars",
			a:      geom.NewRect(0.4, 0.1, 0.6, 0.9), // vertical bar
			b:      geom.NewRect(0.1, 0.4, 0.9, 0.6), // horizontal bar
			wantIP: 16, trueIP: 4,
		},
	}
	tech := MustBasicGH(0)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sa, _ := tech.Build(dataset.New("a", geom.UnitSquare, []geom.Rect{tt.a}))
			sb, _ := tech.Build(dataset.New("b", geom.UnitSquare, []geom.Rect{tt.b}))
			est, err := tech.Estimate(sa, sb)
			if err != nil {
				t.Fatal(err)
			}
			if got := est.PairCount * 4; math.Abs(got-tt.wantIP) > 1e-9 {
				t.Fatalf("level-0 IP = %g, want %g", got, tt.wantIP)
			}
			// Refinement by gridding: at a fine grid the basic count
			// converges to the true intersection-point count.
			fine := MustBasicGH(6)
			fa, _ := fine.Build(dataset.New("a", geom.UnitSquare, []geom.Rect{tt.a}))
			fb, _ := fine.Build(dataset.New("b", geom.UnitSquare, []geom.Rect{tt.b}))
			festNew, err := fine.Estimate(fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			if got := festNew.PairCount * 4; math.Abs(got-float64(tt.trueIP)) > 1e-9 {
				t.Fatalf("level-6 IP = %g, want %d", got, tt.trueIP)
			}
		})
	}
}

// TestRevisedGHFixesFalseCounting shows the revised scheme discounting the
// false count that cripples basic GH at a coarse grid: tiny disjoint
// rectangles in one cell contribute O ≈ 0, so the corner terms nearly
// vanish.
func TestRevisedGHFixesFalseCounting(t *testing.T) {
	a := dataset.New("a", geom.UnitSquare, []geom.Rect{geom.NewRect(0.1, 0.1, 0.2, 0.2)})
	b := dataset.New("b", geom.UnitSquare, []geom.Rect{geom.NewRect(0.7, 0.7, 0.8, 0.8)})
	basic := MustBasicGH(0)
	revised := MustGH(0)
	ba, _ := basic.Build(a)
	bb, _ := basic.Build(b)
	ra, _ := revised.Build(a)
	rb, _ := revised.Build(b)
	bEst, _ := basic.Estimate(ba, bb)
	rEst, _ := revised.Estimate(ra, rb)
	if bEst.PairCount != 4 {
		t.Fatalf("basic pair count = %g, want 4 (16 IP / 4)", bEst.PairCount)
	}
	if rEst.PairCount > 0.1 {
		t.Fatalf("revised pair count = %g, want ≈0", rEst.PairCount)
	}
}

func TestGHErrorDecreasesWithLevel(t *testing.T) {
	// Co-located clusters: the hardest case for the uniformity assumption,
	// so level 0 is far off and the paper's monotone improvement shows.
	a := datagen.Cluster("a", 3000, 0.4, 0.7, 0.08, 0.01, 143)
	b := datagen.Cluster("b", 3000, 0.45, 0.65, 0.1, 0.01, 144)
	truth := core.ComputeGroundTruth(a, b)
	errs := make([]float64, 0, 4)
	for _, level := range []int{0, 2, 4, 6} {
		res, err := core.Run(MustGH(level), a, b, truth)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, res.ErrorPct)
	}
	// The paper reports monotone decrease; require it across these spaced
	// levels and a tight final error.
	for i := 1; i < len(errs); i++ {
		if errs[i] >= errs[i-1] {
			t.Fatalf("GH errors not decreasing: %v", errs)
		}
	}
	if errs[len(errs)-1] > 5 {
		t.Fatalf("GH(6) error = %.1f%%, want <5%%", errs[len(errs)-1])
	}
}

func TestGHAccuratePaperBand(t *testing.T) {
	// The headline claim: <5% error at level 7 on diverse data.
	pairs := []struct {
		name string
		a, b *dataset.Dataset
	}{
		{"cluster-uniform", datagen.Cluster("a", 4000, 0.4, 0.7, 0.1, 0.008, 54), datagen.Uniform("b", 4000, 0.008, 55)},
		{"uniform-uniform", datagen.Uniform("a", 4000, 0.008, 56), datagen.Uniform("b", 4000, 0.008, 57)},
	}
	for _, p := range pairs {
		truth := core.ComputeGroundTruth(p.a, p.b)
		if truth.PairCount == 0 {
			t.Fatalf("%s: empty join", p.name)
		}
		res, err := core.Run(MustGH(7), p.a, p.b, truth)
		if err != nil {
			t.Fatal(err)
		}
		if res.ErrorPct > 5 {
			t.Errorf("%s: GH(7) error = %.2f%%, want <5%%", p.name, res.ErrorPct)
		}
	}
}

func TestGHHandlesPointDatasets(t *testing.T) {
	// Points joined with rectangles: a point intersects a rectangle iff it
	// lies inside it; GH's corner/area terms capture this in the limit.
	pts := datagen.Points("p", 3000, 10, 0.05, 58)
	polys := datagen.HeavyTailedPolygons("g", 2000, 10, 0.05, 0.003, 1.4, 59)
	truth := core.ComputeGroundTruth(pts, polys)
	if truth.PairCount == 0 {
		t.Fatal("test setup: empty join")
	}
	res, err := core.Run(MustGH(6), pts, polys, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct > 20 {
		t.Fatalf("GH(6) on points error = %.1f%%", res.ErrorPct)
	}
}

func TestGHEstimateRejectsMismatch(t *testing.T) {
	d := datagen.Uniform("d", 100, 0.02, 60)
	gh3, gh4 := MustGH(3), MustGH(4)
	s3, _ := gh3.Build(d)
	s4, _ := gh4.Build(d)
	if _, err := gh3.Estimate(s3, s4); err != core.ErrSummaryMismatch {
		t.Fatalf("level mismatch err = %v", err)
	}
	ph, _ := MustPH(3).Build(d)
	if _, err := gh3.Estimate(ph, s3); err != core.ErrSummaryMismatch {
		t.Fatalf("foreign err = %v", err)
	}
	if _, err := gh3.Estimate(s3, ph); err != core.ErrSummaryMismatch {
		t.Fatalf("foreign err = %v", err)
	}
	// BasicGH mismatches too.
	basic := MustBasicGH(3)
	bs, _ := basic.Build(d)
	bs4, _ := MustBasicGH(4).Build(d)
	if _, err := basic.Estimate(bs, bs4); err != core.ErrSummaryMismatch {
		t.Fatalf("basic level mismatch err = %v", err)
	}
	if _, err := basic.Estimate(s3, bs); err != core.ErrSummaryMismatch {
		t.Fatalf("basic foreign err = %v", err)
	}
	if _, err := basic.Estimate(bs, s3); err != core.ErrSummaryMismatch {
		t.Fatalf("basic foreign err = %v", err)
	}
}

func TestGHSummaryAccessors(t *testing.T) {
	d := datagen.Uniform("d", 100, 0.02, 61)
	s, _ := MustGH(3).Build(d)
	sum := s.(*GHSummary)
	if sum.DatasetName() != "d" || sum.ItemCount() != 100 || sum.Level() != 3 {
		t.Fatal("GH accessors wrong")
	}
	if sum.SizeBytes() != 64*32+24 {
		t.Fatalf("GH SizeBytes = %d", sum.SizeBytes())
	}
	bsRaw, _ := MustBasicGH(3).Build(d)
	bs := bsRaw.(*BasicGHSummary)
	if bs.DatasetName() != "d" || bs.ItemCount() != 100 || bs.SizeBytes() != 64*32+24 {
		t.Fatal("BasicGH accessors wrong")
	}
}

// TestGHSpaceLessThanPH verifies the paper's space claim (compare Tables 1
// and 2): GH stores half of PH's per-cell state.
func TestGHSpaceLessThanPH(t *testing.T) {
	d := datagen.Uniform("d", 500, 0.02, 62)
	gh, _ := MustGH(5).Build(d)
	ph, _ := MustPH(5).Build(d)
	if gh.SizeBytes() >= ph.SizeBytes() {
		t.Fatalf("GH bytes %d not below PH bytes %d", gh.SizeBytes(), ph.SizeBytes())
	}
}
