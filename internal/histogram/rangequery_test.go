package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// actualRangeCount is the exact answer a range estimator approximates.
func actualRangeCount(d *dataset.Dataset, q geom.Rect) int {
	n := 0
	for _, r := range d.Items {
		if r.Intersects(q) {
			n++
		}
	}
	return n
}

// rangeErr returns the relative error (%) of est against the exact count.
func rangeErr(est float64, actual int) float64 {
	if actual == 0 {
		return est * 100
	}
	return 100 * math.Abs(est-float64(actual)) / float64(actual)
}

func rangeQueries(seed int64, n int) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		w, h := 0.05+rng.Float64()*0.15, 0.05+rng.Float64()*0.15
		out[i] = geom.NewRect(x, y, math.Min(1, x+w), math.Min(1, y+h))
	}
	return out
}

func TestGHRangeAccuracy(t *testing.T) {
	d := datagen.Cluster("d", 10000, 0.4, 0.6, 0.15, 0.01, 80)
	s, err := MustGH(6).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	gh := s.(*GHSummary)
	var worst, sum float64
	queries := rangeQueries(81, 30)
	for _, q := range queries {
		actual := actualRangeCount(d, q)
		if actual < 50 {
			continue // tiny counts make relative error meaningless
		}
		e := rangeErr(gh.EstimateRange(q), actual)
		sum += e
		worst = math.Max(worst, e)
	}
	if avg := sum / float64(len(queries)); avg > 10 {
		t.Errorf("GH range avg error %.1f%%, want <10%%", avg)
	}
	if worst > 30 {
		t.Errorf("GH range worst error %.1f%%", worst)
	}
}

func TestPHRangeAccuracy(t *testing.T) {
	d := datagen.Cluster("d", 10000, 0.4, 0.6, 0.15, 0.01, 82)
	s, err := MustPH(5).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	ph := s.(*PHSummary)
	var sum float64
	n := 0
	for _, q := range rangeQueries(83, 30) {
		actual := actualRangeCount(d, q)
		if actual < 50 {
			continue
		}
		sum += rangeErr(ph.EstimateRange(q), actual)
		n++
	}
	if avg := sum / float64(n); avg > 15 {
		t.Errorf("PH range avg error %.1f%%, want <15%%", avg)
	}
}

func TestParametricRangeUniformData(t *testing.T) {
	// On uniform data the global formula is near-exact.
	d := datagen.Uniform("d", 10000, 0.01, 84)
	s, _ := NewParametric().Build(d)
	par := s.(*ParametricSummary)
	var sum float64
	n := 0
	for _, q := range rangeQueries(85, 30) {
		actual := actualRangeCount(d, q)
		if actual < 50 {
			continue
		}
		sum += rangeErr(par.EstimateRange(q), actual)
		n++
	}
	if avg := sum / float64(n); avg > 10 {
		t.Errorf("parametric range avg error on uniform data %.1f%%", avg)
	}
}

func TestGHRangeBeatsParametricOnSkew(t *testing.T) {
	d := datagen.Cluster("d", 8000, 0.3, 0.3, 0.08, 0.01, 86)
	ghRaw, _ := MustGH(6).Build(d)
	parRaw, _ := NewParametric().Build(d)
	gh, par := ghRaw.(*GHSummary), parRaw.(*ParametricSummary)

	// A query far from the cluster: parametric predicts proportional mass,
	// GH knows the region is empty.
	empty := geom.NewRect(0.7, 0.7, 0.9, 0.9)
	if actual := actualRangeCount(d, empty); actual != 0 {
		t.Fatalf("test setup: query not empty (%d)", actual)
	}
	if est := gh.EstimateRange(empty); est > 1 {
		t.Errorf("GH estimates %g items in empty region", est)
	}
	if est := par.EstimateRange(empty); est < 100 {
		t.Errorf("parametric estimate %g suspiciously low — did the test setup change?", est)
	}

	// A query on the cluster: parametric grossly underestimates.
	hot := geom.NewRect(0.25, 0.25, 0.35, 0.35)
	actual := actualRangeCount(d, hot)
	ghErr := rangeErr(gh.EstimateRange(hot), actual)
	parErr := rangeErr(par.EstimateRange(hot), actual)
	if ghErr >= parErr {
		t.Errorf("GH error %.1f%% not below parametric %.1f%% on hot region", ghErr, parErr)
	}
}

func TestRangeWindowEdgeCases(t *testing.T) {
	d := datagen.Uniform("d", 2000, 0.01, 87)
	s, _ := MustGH(4).Build(d)
	gh := s.(*GHSummary)
	// Window completely outside the unit square → 0.
	if est := gh.EstimateRange(geom.NewRect(2, 2, 3, 3)); est != 0 {
		t.Errorf("outside window est = %g", est)
	}
	// Window covering everything → N (all corners inside, identity exact).
	full := gh.EstimateRange(geom.UnitSquare)
	if math.Abs(full-2000) > 2000*0.02 {
		t.Errorf("full-extent estimate %g, want ≈2000", full)
	}
	// Degenerate (zero-area) window behaves like a point probe.
	if est := gh.EstimateRange(geom.NewRect(0.5, 0.5, 0.5, 0.5)); est < 0 {
		t.Errorf("point probe negative: %g", est)
	}
	// Windows poking outside are clipped, not rejected.
	if est := gh.EstimateRange(geom.NewRect(0.9, 0.9, 1.5, 1.5)); est < 0 {
		t.Errorf("overhanging window negative: %g", est)
	}
	// PH and parametric share the clipping behaviour.
	sp, _ := MustPH(4).Build(d)
	if est := sp.(*PHSummary).EstimateRange(geom.NewRect(2, 2, 3, 3)); est != 0 {
		t.Errorf("PH outside window est = %g", est)
	}
	pp, _ := NewParametric().Build(d)
	if est := pp.(*ParametricSummary).EstimateRange(geom.NewRect(2, 2, 3, 3)); est != 0 {
		t.Errorf("parametric outside window est = %g", est)
	}
}

// ghCellTermsOf lists one rectangle's Table-2 contributions to a single cell
// (i, j), with inter = r ∩ cell already known: its corners there, its area
// ratio, and the length ratio of each of its horizontal and of its vertical
// edges there. It mirrors applyGHItem restricted to one cell.
func ghCellTermsOf(grid Grid, r geom.Rect, i, j int, inter geom.Rect) (corners int, area float64, h, v []float64) {
	for _, p := range r.Corners() {
		if pi, pj := grid.CellOf(p.X, p.Y); pi == i && pj == j {
			corners++
		}
	}
	cell := grid.CellRect(i, j)
	for _, y := range [2]float64{r.MinY, r.MaxY} {
		if _, ej := grid.CellOf(r.MinX, y); ej == j {
			if l := minf(r.MaxX, cell.MaxX) - maxf(r.MinX, cell.MinX); l > 0 {
				h = append(h, l/grid.CellWidth())
			}
		}
	}
	for _, x := range [2]float64{r.MinX, r.MaxX} {
		if ei, _ := grid.CellOf(x, r.MinY); ei == i {
			if l := minf(r.MaxY, cell.MaxY) - maxf(r.MinY, cell.MinY); l > 0 {
				v = append(v, l/grid.CellHeight())
			}
		}
	}
	return corners, inter.Area() / grid.CellArea(), h, v
}

// ghCellParamsOf is one rectangle's Table-2 parameters in cell (i, j) as
// float64 sums, what a window contributes in EstimateRange.
func ghCellParamsOf(grid Grid, r geom.Rect, i, j int, inter geom.Rect) ghCell {
	corners, area, h, v := ghCellTermsOf(grid, r, i, j, inter)
	c := ghCell{C: float64(corners), O: area}
	for _, x := range h {
		c.H += x
	}
	for _, x := range v {
		c.V += x
	}
	return c
}

// estimateRangeReference is GHSummary.EstimateRange derived one cell at a
// time: the window's parameters in every cell it touches come from
// ghCellParamsOf, and the cells are summed in the same row-major order.
func estimateRangeReference(s *GHSummary, q geom.Rect) float64 {
	q, ok := clipUnit(q)
	if !ok {
		return 0
	}
	grid := MustGrid(s.level)
	var ip float64
	grid.VisitCells(q, func(i, j int, inter geom.Rect) {
		cq := ghCellParamsOf(grid, q, i, j, inter)
		cd := &s.cells[grid.CellIndex(i, j)]
		ip += cq.C*cd.O + cd.C*cq.O + cq.H*cd.V + cd.H*cq.V
	})
	return ip / 4
}

// sameFloat is bit-for-bit equality, except that any NaN equals any NaN: a
// NaN's payload depends on which operand the hardware propagates.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// rangeSummaries returns GH summaries of one clustered dataset at level h,
// built the three ways the system builds them: Build, BuildGHParallel, and
// an incremental GHBuilder that has seen adds and removes.
func rangeSummaries(t testing.TB, d *dataset.Dataset, level int) map[string]*GHSummary {
	t.Helper()
	built, err := MustGH(level).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildGHParallel(d, level, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGHBuilder(d.Name, level)
	if err != nil {
		t.Fatal(err)
	}
	items := d.Normalize().Items
	for _, r := range items {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < len(items); k += 3 {
		if err := b.Remove(items[k]); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*GHSummary{"build": built.(*GHSummary), "parallel": par.(*GHSummary), "incremental": b.Summary()}
}

// rangeWindows returns windows for a level-h grid: random, on its grid lines
// and on a finer level's, points and segments (on grid lines too), partly
// and wholly outside the unit square, inverted, non-finite, and the full
// square.
func rangeWindows(seed int64, level int) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	side := float64(int(1) << level)
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(int(side)+1)) / side // a grid line
		case 1:
			return float64(rng.Intn(1<<10+1)) / (1 << 10) // a finer level's line
		case 2:
			return -0.2 + 1.4*rng.Float64() // may fall outside
		default:
			return rng.Float64()
		}
	}
	out := []geom.Rect{
		geom.UnitSquare,
		geom.NewRect(-1, -1, 2, 2),
		geom.NewRect(2, 2, 3, 3),
		geom.NewRect(-3, 0.2, -2, 0.4),
		geom.NewRect(0, 0, 0, 0),
		geom.NewRect(1, 1, 1, 1),
		geom.NewRect(0.5, 0.5, 0.5, 0.5),
		geom.NewRect(0, 0.5, 1, 0.5),
		geom.NewRect(0.5, 0, 0.5, 1),
		{MinX: 0.6, MinY: 0.6, MaxX: 0.4, MaxY: 0.7}, // inverted
		{MinX: 0.3, MinY: 0.3, MaxX: 0.3 - 1e-9, MaxY: 0.5},
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)},
		{MinX: 0.25, MinY: 0.25, MaxX: 0.25 + 5e-324, MaxY: 0.25 + 5e-324},
	}
	for k := 0; k < 200; k++ {
		x0, x1, y0, y1 := coord(), coord(), coord(), coord()
		switch k % 5 {
		case 0:
			x1 = x0 // vertical segment
		case 1:
			x1, y1 = x0, y0 // point
		}
		out = append(out, geom.NewRect(x0, y0, x1, y1))
	}
	return out
}

// EstimateRange's row-by-row form answers exactly what the one-cell-at-a-time
// derivation answers, bit for bit, on every way a summary is built, at every
// level the paper evaluates, for every kind of window — and on a summary whose
// cells hold NaN and ±Inf.
func TestGHEstimateRangeMatchesReference(t *testing.T) {
	d := datagen.Cluster("d", 1500, 0.4, 0.6, 0.2, 0.03, 91)
	for level := 0; level <= 9; level++ {
		summaries := rangeSummaries(t, d, level)
		poisoned := *summaries["build"]
		poisoned.cells = append([]ghCell(nil), poisoned.cells...)
		n := len(poisoned.cells)
		poisoned.cells[n/2].O = math.NaN()
		poisoned.cells[n/3].H = math.Inf(1)
		poisoned.cells[n-1].C = math.Inf(-1)
		summaries["poisoned"] = &poisoned
		for name, s := range summaries {
			for _, q := range rangeWindows(int64(100+level), level) {
				got, want := s.EstimateRange(q), estimateRangeReference(s, q)
				if !sameFloat(got, want) {
					t.Fatalf("level %d %s window %+v: EstimateRange %v (%#x), reference %v (%#x)",
						level, name, q, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// BenchmarkGHEstimateRange prices one window against a 100 000-item
// clustered summary: windows of side 0.05, 0.3 (the size the benchmark
// workloads plan with) and 1.0 at levels 7 (the planner's statistics level)
// and 9.
func BenchmarkGHEstimateRange(b *testing.B) {
	d := datagen.Cluster("d", 100_000, 0.4, 0.6, 0.15, 0.005, 92)
	for _, level := range []int{7, 9} {
		s, err := MustGH(level).Build(d)
		if err != nil {
			b.Fatal(err)
		}
		gh := s.(*GHSummary)
		for _, size := range []float64{0.05, 0.3, 1.0} {
			rng := rand.New(rand.NewSource(93))
			windows := make([]geom.Rect, 64)
			for k := range windows {
				x, y := rng.Float64()*(1-size), rng.Float64()*(1-size)
				windows[k] = geom.NewRect(x, y, x+size, y+size)
			}
			b.Run(fmt.Sprintf("level=%d/side=%g", level, size), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += gh.EstimateRange(windows[i%len(windows)])
				}
				if math.IsNaN(sink) {
					b.Fatal("NaN estimate")
				}
			})
		}
	}
}

// TestGHCellParamsMatchApply verifies the one-cell derivation the
// EstimateRange reference uses is the batch accumulation's: rounding each of
// its corner, area and edge contributions once, the way applyGHItem does,
// gives exactly the sums applyGHItem writes. Two edges in one cell round
// separately, so this is not fixed() of ghCellParamsOf's float sum.
func TestGHCellParamsMatchApply(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	g := MustGrid(4)
	for trial := 0; trial < 200; trial++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		r := geom.NewRect(x, y, math.Min(1, x+rng.Float64()*0.3), math.Min(1, y+rng.Float64()*0.3))
		batch := make([]ghSums, g.Cells())
		applyGHItem(g, r, batch, +1)
		g.VisitCells(r, func(i, j int, inter geom.Rect) {
			corners, area, h, v := ghCellTermsOf(g, r, i, j, inter)
			got := ghSums{C: int64(corners), O: fixed(area)}
			for _, x := range h {
				got.H += fixed(x)
			}
			for _, x := range v {
				got.V += fixed(x)
			}
			if want := batch[g.CellIndex(i, j)]; got != want {
				t.Fatalf("cell (%d,%d) of %v: on-the-fly %+v != batch %+v", i, j, r, got, want)
			}
		})
	}
}

func TestMinCornerProb(t *testing.T) {
	cell := geom.NewRect(0, 0, 1, 1)
	// Query covering the whole domain: certain intersection.
	if p := minCornerProb(cell, geom.NewRect(0, 0, 1, 1), 0.1, 0.1, 1, 1); p != 1 {
		t.Errorf("full-cover prob = %g", p)
	}
	// Query outside reach: zero.
	if p := minCornerProb(cell, geom.NewRect(2, 2, 3, 3), 0.1, 0.1, 1, 1); p != 0 {
		t.Errorf("unreachable prob = %g", p)
	}
	// Hand-computed: w=h=0.2, q=[0.4,0.6]²; min corner must lie in
	// [0.2,0.6]² → p = 0.16.
	if p := minCornerProb(cell, geom.NewRect(0.4, 0.4, 0.6, 0.6), 0.2, 0.2, 1, 1); math.Abs(p-0.16) > 1e-12 {
		t.Errorf("hand-computed prob = %g, want 0.16", p)
	}
}
