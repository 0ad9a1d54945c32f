package sample

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/hilbert"
	"spatialsel/internal/obs"
)

func TestNewValidation(t *testing.T) {
	for _, frac := range []float64{0, -0.1, 1.1} {
		if _, err := New(RS, frac); err == nil {
			t.Errorf("fraction %g accepted", frac)
		}
	}
	if _, err := New(Method(99), 0.5); err == nil {
		t.Error("unknown method accepted")
	}
	tech, err := New(RSWR, 0.1, WithSeed(7), WithStrategy(SweepJoin))
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if tech.seed != 7 || tech.strategy != SweepJoin {
		t.Fatalf("options not applied: %+v", tech)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(RS, 0)
}

func TestNames(t *testing.T) {
	if got := MustNew(RS, 0.1).Name(); got != "RS(10%)" {
		t.Errorf("Name = %q", got)
	}
	if got := MustNew(RSWR, 0.001).Name(); got != "RSWR(0.1%)" {
		t.Errorf("Name = %q", got)
	}
	if got := Full(SS).Name(); got != "SS(100%)" {
		t.Errorf("Name = %q", got)
	}
	if got := Method(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown method String = %q", got)
	}
	if RTreeJoin.String() != "rtree" || SweepJoin.String() != "sweep" {
		t.Error("JoinStrategy strings wrong")
	}
}

func TestSampleSizes(t *testing.T) {
	d := datagen.Uniform("d", 1000, 0.01, 1)
	for _, m := range []Method{RS, RSWR, SS} {
		for _, frac := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
			tech := MustNew(m, frac)
			s, err := tech.Build(d)
			if err != nil {
				t.Fatalf("%v(%g): %v", m, frac, err)
			}
			smp := s.(*Summary)
			want := int(math.Round(frac * 1000))
			if want < 1 {
				want = 1
			}
			if smp.SampleSize() != want {
				t.Errorf("%v(%g): sample size %d, want %d", m, frac, smp.SampleSize(), want)
			}
			if smp.ItemCount() != 1000 {
				t.Errorf("%v(%g): ItemCount %d", m, frac, smp.ItemCount())
			}
			if smp.DatasetName() != "d" {
				t.Errorf("DatasetName = %q", smp.DatasetName())
			}
			if smp.SizeBytes() <= 0 {
				t.Errorf("SizeBytes = %d", smp.SizeBytes())
			}
		}
	}
}

func TestBuildEmptyDataset(t *testing.T) {
	d := dataset.New("e", geom.UnitSquare, nil)
	if _, err := MustNew(RS, 0.1).Build(d); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestRSDeterministicStride(t *testing.T) {
	items := make([]geom.Rect, 10)
	for i := range items {
		x := float64(i) / 10
		items[i] = geom.NewRect(x, 0, x+0.05, 0.05)
	}
	d := dataset.New("d", geom.UnitSquare, items)
	s, err := MustNew(RS, 0.3).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	smp := s.(*Summary)
	// n=3, k=ceil(10/3)=4 → items 0,4,8.
	if smp.SampleSize() != 3 {
		t.Fatalf("size = %d", smp.SampleSize())
	}
	for i, wantIdx := range []int{0, 4, 8} {
		if smp.sample[i] != items[wantIdx] {
			t.Errorf("sample[%d] = %v, want item %d", i, smp.sample[i], wantIdx)
		}
	}
}

func TestSSOrdersByHilbert(t *testing.T) {
	// SS over a fraction-1 sample returns all items; with a small fraction it
	// must pick items spread across space, unlike RS over an adversarial
	// ordering. Construct a dataset ordered so plain RS picks only the left
	// half, and verify SS picks from both halves.
	var items []geom.Rect
	for i := 0; i < 50; i++ { // left cluster first
		x := 0.1 + float64(i)*0.001
		items = append(items, geom.NewRect(x, 0.5, x+0.0005, 0.5005))
	}
	for i := 0; i < 50; i++ { // right cluster second
		x := 0.9 + float64(i)*0.001
		items = append(items, geom.NewRect(x, 0.5, x+0.0005, 0.5005))
	}
	d := dataset.New("d", geom.UnitSquare, items)
	s, err := MustNew(SS, 0.1).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	left, right := 0, 0
	for _, r := range s.(*Summary).sample {
		if r.MinX < 0.5 {
			left++
		} else {
			right++
		}
	}
	if left == 0 || right == 0 {
		t.Fatalf("SS sample not spatially balanced: left=%d right=%d", left, right)
	}
}

func TestRSWRSeedControl(t *testing.T) {
	d := datagen.Uniform("d", 500, 0.01, 2)
	s1, _ := MustNew(RSWR, 0.1, WithSeed(1)).Build(d)
	s2, _ := MustNew(RSWR, 0.1, WithSeed(1)).Build(d)
	s3, _ := MustNew(RSWR, 0.1, WithSeed(2)).Build(d)
	a, b, c := s1.(*Summary).sample, s2.(*Summary).sample, s3.(*Summary).sample
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different samples")
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds, identical samples")
	}
}

func TestFullSampleEstimateIsExact(t *testing.T) {
	// With fraction 1 on both sides the estimate must equal the true
	// selectivity exactly.
	a := datagen.Uniform("a", 400, 0.05, 3)
	b := datagen.Uniform("b", 300, 0.05, 4)
	truth := core.ComputeGroundTruth(a, b)
	for _, strat := range []JoinStrategy{RTreeJoin, SweepJoin} {
		tech := Full(RS, WithStrategy(strat))
		res, err := core.Run(tech, a, b, truth)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if math.Abs(res.Estimate.Selectivity-truth.Selectivity) > 1e-12 {
			t.Fatalf("%v: full-sample selectivity %g != truth %g",
				strat, res.Estimate.Selectivity, truth.Selectivity)
		}
		if res.ErrorPct > 1e-9 {
			t.Fatalf("%v: ErrorPct = %g", strat, res.ErrorPct)
		}
	}
}

func TestSamplingAccuracyOnUniformData(t *testing.T) {
	// A 10% sample of uniform data should land within a loose error band.
	a := datagen.Uniform("a", 5000, 0.02, 5)
	b := datagen.Uniform("b", 5000, 0.02, 6)
	truth := core.ComputeGroundTruth(a, b)
	if truth.PairCount == 0 {
		t.Fatal("test setup: empty join")
	}
	for _, m := range []Method{RS, RSWR, SS} {
		res, err := core.Run(MustNew(m, 0.1), a, b, truth)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.ErrorPct > 35 {
			t.Errorf("%v: error %.1f%% too high for uniform data", m, res.ErrorPct)
		}
	}
}

func TestEstimateRejectsForeignSummaries(t *testing.T) {
	tech := MustNew(RS, 0.1)
	if _, err := tech.Estimate(fakeSummary{}, fakeSummary{}); err != core.ErrSummaryMismatch {
		t.Fatalf("foreign summary err = %v", err)
	}
	// Strategy mismatch: summary built without a tree fed to an R-tree
	// technique.
	d := datagen.Uniform("d", 100, 0.05, 7)
	sweepSummary, _ := MustNew(RS, 0.1, WithStrategy(SweepJoin)).Build(d)
	if _, err := tech.Estimate(sweepSummary, sweepSummary); err != core.ErrSummaryMismatch {
		t.Fatalf("strategy mismatch err = %v", err)
	}
}

type fakeSummary struct{}

func (fakeSummary) DatasetName() string { return "f" }
func (fakeSummary) ItemCount() int      { return 1 }
func (fakeSummary) SizeBytes() int64    { return 0 }

func TestAsymmetric(t *testing.T) {
	asym, err := NewAsymmetric(RSWR, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := asym.Name(); got != "RSWR(10%/100%)" {
		t.Errorf("Name = %q", got)
	}
	a := datagen.Uniform("a", 2000, 0.02, 8)
	b := datagen.Uniform("b", 2000, 0.02, 9)
	truth := core.ComputeGroundTruth(a, b)
	sa, err := asym.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := asym.BuildRight(b)
	if err != nil {
		t.Fatal(err)
	}
	if sb.(*Summary).SampleSize() != 2000 {
		t.Fatalf("right side not full: %d", sb.(*Summary).SampleSize())
	}
	est, err := asym.Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBand(est.Selectivity, truth.Selectivity, 0.5); err != nil {
		t.Error(err)
	}
	if _, err := NewAsymmetric(RS, 0, 1); err == nil {
		t.Error("bad left fraction accepted")
	}
	if _, err := NewAsymmetric(RS, 1, 2); err == nil {
		t.Error("bad right fraction accepted")
	}
}

func checkBand(got, want, tol float64) error {
	if want == 0 {
		return nil
	}
	if rel := math.Abs(got-want) / want; rel > tol {
		return fmt.Errorf("estimate %g vs truth %g (rel %.2f)", got, want, rel)
	}
	return nil
}

func TestFractionAccessor(t *testing.T) {
	if got := MustNew(RS, 0.25).Fraction(); got != 0.25 {
		t.Fatalf("Fraction = %g", got)
	}
}

// parentSystematic is the stride as it was written before orders became
// optional: an explicit index permutation, the base pass, then the top-up
// passes. The tests below hold the nil-order and memoized-order paths to it
// element for element.
func parentSystematic(items []geom.Rect, idx []int, n int) []geom.Rect {
	k := (len(items) + n - 1) / n
	if k < 1 {
		k = 1
	}
	out := make([]geom.Rect, 0, n)
	for i := 0; i < len(idx) && len(out) < n; i += k {
		out = append(out, items[idx[i]])
	}
	for off := 1; len(out) < n && off < k; off++ {
		for i := off; i < len(idx) && len(out) < n; i += k {
			out = append(out, items[idx[i]])
		}
	}
	return out
}

func sampleOf(t *testing.T, m Method, n int, d *dataset.Dataset) []geom.Rect {
	t.Helper()
	s, err := MustNew(m, float64(n)/float64(d.Len())).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*Summary).sample
}

func sameRects(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RS strides positions directly instead of an identity permutation; SS
// strides the dataset's memoized Hilbert order. Both must draw exactly what
// the explicit-permutation stride drew, including where the stride
// undershoots and tops up (N not divisible by n) and at the ends (n = 1,
// n = N).
func TestSystematicMatchesExplicitPermutation(t *testing.T) {
	for _, N := range []int{1, 7, 97, 1000, 1013} {
		d := datagen.MultiCluster("d", N, 3, 0.05, 0.02, int64(N))
		identity := make([]int, N)
		for i := range identity {
			identity[i] = i
		}
		// The order as the parent computed it, made a function of the data:
		// Hilbert key, ties by index.
		curve := hilbert.MustNew(hilbert.MaxOrder, d.Extent)
		byHilbert := append([]int(nil), identity...)
		sort.SliceStable(byHilbert, func(i, j int) bool {
			return curve.RectIndex(d.Items[byHilbert[i]]) < curve.RectIndex(d.Items[byHilbert[j]])
		})
		for _, n := range []int{1, 2, 3, N / 3, N/2 + 1, N - 1, N} {
			if n < 1 || n > N {
				continue
			}
			if got, want := sampleOf(t, RS, n, d), parentSystematic(d.Items, identity, n); !sameRects(got, want) {
				t.Errorf("RS N=%d n=%d: sample differs from the explicit identity stride", N, n)
			}
			if got, want := sampleOf(t, SS, n, d), parentSystematic(d.Items, byHilbert, n); !sameRects(got, want) {
				t.Errorf("SS N=%d n=%d: sample differs from the explicit Hilbert stride", N, n)
			}
		}
	}
}

// Equal Hilbert keys must not leave the order to the sort algorithm: a
// dataset of duplicates comes back in index order.
func TestHilbertOrderBreaksTiesByIndex(t *testing.T) {
	items := make([]geom.Rect, 500)
	for i := range items {
		items[i] = geom.NewRect(0.4, 0.4, 0.5, 0.5)
	}
	order, _ := dataset.New("dup", geom.UnitSquare, items).HilbertOrder()
	for i, v := range order {
		if int(v) != i {
			t.Fatalf("order[%d] = %d on all-equal keys, want index order", i, v)
		}
	}
}

// The Hilbert order is computed once per dataset value however many
// goroutines touch it first, and every one of them sees the same slice.
func TestHilbertOrderSingleFlight(t *testing.T) {
	d := datagen.Uniform("d", 20000, 0.01, 5)
	sorts := obs.Default.Counter("sample_hilbert_sorts_total", "")
	before := sorts.Value()
	const G = 32
	var (
		wg     sync.WaitGroup
		firsts [G]*int32
		builds [G]bool
	)
	start := make(chan struct{})
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if _, err := MustNew(SS, 0.01).Build(d); err != nil {
				t.Error(err)
			}
			order, built := d.HilbertOrder()
			firsts[g], builds[g] = &order[0], built > 0
		}(g)
	}
	close(start)
	wg.Wait()
	if got := sorts.Value() - before; got != 1 {
		t.Fatalf("%d goroutines first-touching one dataset sorted it %d times, want 1", G, got)
	}
	for g := 1; g < G; g++ {
		if firsts[g] != firsts[0] {
			t.Fatalf("goroutine %d saw a different order slice", g)
		}
		if builds[g] {
			t.Errorf("goroutine %d's lookup after Build reported a build", g)
		}
	}
}

// BenchmarkEstimateSS is one SS estimate end to end (both samples drawn and
// indexed, then joined) over two 100k-item datasets at a 1 % fraction: cold
// pays both Hilbert sorts (a dataset value's first touch), warm strides the
// memoized orders — build vs. lookup.
func BenchmarkEstimateSS(b *testing.B) {
	const n = 100_000
	da := datagen.Uniform("a", n, 0.003, 1)
	db := datagen.MultiCluster("b", n, 8, 0.05, 0.003, 2)
	tech := MustNew(SS, 0.01)
	estimate := func(a, c *dataset.Dataset) {
		sa, err := tech.Build(a)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := tech.Build(c)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tech.Estimate(sa, sb); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A new Dataset value over the same items: nothing memoized.
			estimate(dataset.New("a", da.Extent, da.Items), dataset.New("b", db.Extent, db.Items))
		}
	})
	b.Run("warm", func(b *testing.B) {
		estimate(da, db)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimate(da, db)
		}
	})
}
