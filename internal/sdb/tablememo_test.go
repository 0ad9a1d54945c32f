package sdb

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/obs"
	"spatialsel/internal/sample"
)

// unmemoized returns a new table value over t's data, index, image and
// statistics: what a fresh registration of the same contents would hold, with
// nothing memoized.
func unmemoized(t *Table) *Table {
	return &Table{Name: t.Name, Data: t.Data, Index: t.Index, Packed: t.Packed, Stats: t.Stats, RawExtent: t.RawExtent}
}

func catalogOf(t *testing.T, level int, tables ...*Table) *Catalog {
	t.Helper()
	c, err := NewCatalogAtLevel(level)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if err := c.Attach(tab); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func memoTables(t testing.TB, level int) []*Table {
	t.Helper()
	c, err := NewCatalogAtLevel(level)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Table
	for _, d := range []*dataset.Dataset{
		datagen.Cluster("a", 3000, 0.3, 0.3, 0.08, 0.01, 11),
		datagen.MultiCluster("b", 2500, 4, 0.06, 0.012, 12),
		datagen.Uniform("c", 3000, 0.01, 13),
		datagen.Diagonal("d", 2000, 0.05, 0.015, 14),
	} {
		tab, err := c.BuildTable(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tab)
	}
	return out
}

var memoQueries = []Query{
	{Tables: []string{"a", "b"}, Predicates: []Predicate{{"a", "b"}}},
	{Tables: []string{"b", "a"}, Predicates: []Predicate{{"b", "a"}}},
	{Tables: []string{"a", "b", "c", "d"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}, {"d", "c"}},
		Windows: map[string]geom.Rect{"a": geom.NewRect(0.1, 0.1, 0.6, 0.6)}},
	{Tables: []string{"a", "b", "c", "d"}, Predicates: []Predicate{{"b", "a"}, {"b", "c"}, {"b", "d"}, {"c", "d"}},
		Windows: map[string]geom.Rect{"c": geom.NewRect(0.2, 0.2, 0.9, 0.9), "d": geom.NewRect(0, 0, 0.5, 0.5)}},
}

type planShape struct {
	Base    string
	Steps   []Step
	EstCost float64
}

func planShapes(t *testing.T, c *Catalog) []planShape {
	t.Helper()
	var out []planShape
	for _, q := range memoQueries {
		p, err := c.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, planShape{p.Base, p.Steps, p.EstCost})
	}
	return out
}

// A plan is the same — order, every step's estimate, the cost, bit for bit —
// whether its selectivities were computed for it, looked up, or looked up
// after a partner was replaced (where only the replaced partner's pairs are
// recomputed).
func TestPlanMemoWarmEqualsCold(t *testing.T) {
	const level = 6
	tabs := memoTables(t, level)
	c := catalogOf(t, level, tabs...)
	cold := planShapes(t, c)
	if p, _ := c.Plan(memoQueries[2]); p.StatsBuild != 0 {
		t.Errorf("a re-plan on warm tables reports StatsBuild %v, want 0", p.StatsBuild)
	}
	if warm := planShapes(t, c); !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm plans differ from cold:\n%+v\n%+v", cold, warm)
	}
	// The memoized selectivity is gh.Estimate in the predicate's argument order.
	want, err := histogram.MustGH(level).Estimate(tabs[1].Stats, tabs[0].Stats)
	if err != nil {
		t.Fatal(err)
	}
	if got, hit, took, _ := tabs[1].Estimate("gh", tabs[0], 0); got != want || !hit || took != 0 {
		t.Fatalf("memoized b⋈a = %+v (hit %v, took %v), gh.Estimate = %+v", got, hit, took, want)
	}

	// Replace b: a, c and d keep their warm memos, which still name the old b.
	scratch, _ := NewCatalogAtLevel(level)
	b2, err := scratch.BuildTable(datagen.Uniform("b", 2800, 0.02, 99))
	if err != nil {
		t.Fatal(err)
	}
	replaced := planShapes(t, catalogOf(t, level, tabs[0], b2, tabs[2], tabs[3]))
	fresh := planShapes(t, catalogOf(t, level, unmemoized(tabs[0]), unmemoized(b2), unmemoized(tabs[2]), unmemoized(tabs[3])))
	if !reflect.DeepEqual(replaced, fresh) {
		t.Fatalf("plans after replacing a partner differ from a fresh catalog's:\n%+v\n%+v", replaced, fresh)
	}
	if reflect.DeepEqual(replaced, cold) {
		t.Fatal("replacing b changed no plan: the test's data cannot show a stale read")
	}
}

var estimateMethods = []string{"gh", "basicgh", "ph", "rs", "rswr", "ss"}

// freshEstimate answers a pairwise estimate the way the library does with
// nothing memoized: the technique built anew over copies of the tables' live
// data (new Dataset values, so no Hilbert order either).
func freshEstimate(t *testing.T, a, b *Table, method string, fraction float64) core.Estimate {
	t.Helper()
	level := a.Stats.Level()
	var tech core.Technique
	switch method {
	case "gh":
		est, err := histogram.MustGH(level).Estimate(a.Stats, b.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return est
	case "basicgh":
		tech = histogram.MustBasicGH(level)
	case "ph":
		tech = histogram.MustPH(level)
	default:
		if fraction == 0 {
			fraction = DefaultSampleFraction
		}
		tech = sample.MustNew(samplingMethods[method], fraction, sample.WithSeed(1))
	}
	build := func(x *Table) core.Summary {
		live, _ := x.LiveData()
		s, err := tech.Build(live.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa, sb := build(a), build(b)
	est, err := tech.Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func sameBits(x, y core.Estimate) bool {
	return math.Float64bits(x.PairCount) == math.Float64bits(y.PairCount) &&
		math.Float64bits(x.Selectivity) == math.Float64bits(y.Selectivity)
}

// Cold ≡ warm ≡ fresh, bit for bit: for every ordered pair of four tables and
// every method, the first Estimate (which builds what the tables lack), the
// second (a memo hit) and a fresh Technique.Build + Estimate over cloned data
// give the same estimate.
func TestTableEstimateWarmEqualsFresh(t *testing.T) {
	const level = 6
	tabs := memoTables(t, level)
	for _, a := range tabs {
		for _, b := range tabs {
			if a == b {
				continue
			}
			for _, method := range estimateMethods {
				fraction := 0.0
				if _, ok := samplingMethods[method]; ok {
					fraction = 0.037
				}
				want := freshEstimate(t, a, b, method, fraction)
				for _, pass := range []string{"cold", "warm"} {
					got, hit, took, err := a.Estimate(method, b, fraction)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Errorf("%s %s⋈%s (%s): %+v, fresh %+v", method, a.Name, b.Name, pass, got, want)
					}
					if warm := pass == "warm"; hit != warm || (took == 0) != warm {
						t.Errorf("%s %s⋈%s (%s): hit %v took %v", method, a.Name, b.Name, pass, hit, took)
					}
				}
			}
		}
	}
}

// Estimate refuses what it would misread: a fraction given to a method that
// does not sample, a table joined with itself, and a method it does not know.
// A sampling method's fraction 0 is the default, the same entry as 0.1.
func TestEstimateRefusesMisreadArguments(t *testing.T) {
	tabs := memoTables(t, 5)
	a, b := tabs[0], tabs[1]
	for _, c := range []struct {
		method   string
		partner  *Table
		fraction float64
	}{
		{"gh", b, 0.5}, {"ph", b, 0.2}, {"basicgh", b, 1}, {"gh", a, 0}, {"ss", a, 0.2}, {"nope", b, 0},
	} {
		if _, _, _, err := a.Estimate(c.method, c.partner, c.fraction); err == nil {
			t.Errorf("%s %s⋈%s fraction %g: no error", c.method, a.Name, c.partner.Name, c.fraction)
		}
	}
	if len(a.memo.pairs) != 0 {
		t.Fatalf("refused estimates left %d memo entries", len(a.memo.pairs))
	}
	dflt, _, _, err := a.Estimate("rs", b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tenth, hit, _, _ := a.Estimate("rs", b, DefaultSampleFraction); !hit || !sameBits(tenth, dflt) {
		t.Fatalf("fraction %g after fraction 0: %+v (hit %v), want the default's %+v from the memo", DefaultSampleFraction, tenth, hit, dflt)
	}
	if third, hit, _, _ := a.Estimate("rs", b, 0.3); hit || !sameBits(third, freshEstimate(t, a, b, "rs", 0.3)) {
		t.Fatalf("fraction 0.3 after 0.1: %+v (hit %v), want a fresh sample", third, hit)
	}
}

// A static table estimated against a partner that publishes generation after
// generation — by the planner and under every method, each sampling estimate
// with its own fraction — keeps one estimate per method, the newest, and does
// not keep the statistics of the generations before it alive.
func TestPairSelectivityHoldsNewestPartnerOnly(t *testing.T) {
	const level, generations = 4, 200
	scratch, _ := NewCatalogAtLevel(level)
	static, err := scratch.BuildTable(datagen.Uniform("static", 300, 0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	q := Query{Tables: []string{"static", "live"}, Predicates: []Predicate{{"static", "live"}}}
	for g := 0; g < generations; g++ {
		live, err := scratch.BuildTable(datagen.Uniform("live", 200+g, 0.05, int64(g)))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(live.Stats, func(*histogram.GHSummary) { collected.Add(1) })
		if _, err := catalogOf(t, level, static, live).Plan(q); err != nil {
			t.Fatal(err)
		}
		for _, method := range estimateMethods {
			fraction := 0.0
			if _, ok := samplingMethods[method]; ok {
				fraction = 0.2 + float64(g)*1e-3
			}
			if _, _, _, err := static.Estimate(method, live, fraction); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(static.memo.pairs); n != len(estimateMethods) {
		t.Fatalf("static table holds %d estimates after %d partner generations under %d methods, want one per method", n, generations, len(estimateMethods))
	}
	for k, e := range static.memo.pairs {
		if k.partner != "live" {
			t.Errorf("entry %+v names a partner never asked about", k)
		}
		if _, ok := samplingMethods[k.method]; ok && e.fraction != 0.2+float64(generations-1)*1e-3 {
			t.Errorf("%s entry holds fraction %g, want the newest", k.method, e.fraction)
		}
	}
	for i := 0; i < 5 && collected.Load() < generations-1; i++ {
		runtime.GC()
	}
	if got := collected.Load(); got < generations-1 {
		t.Fatalf("%d of %d past partner statistics were collected, want all but the newest", got, generations)
	}
	runtime.KeepAlive(static)
}

// However many estimates touch a table's PH summary first, it is built once
// and every estimate reads that one value: 32 goroutines estimating a⋈b build
// one summary per table and all answer the same.
func TestHistogramSummarySingleFlight(t *testing.T) {
	tabs := memoTables(t, 6)
	a, b := tabs[2], tabs[3]
	builds := obs.Default.Counter("histogram_builds_total", "", obs.L("technique", "ph"))
	before := builds.Value()
	const G = 32
	var (
		wg  sync.WaitGroup
		got [G]core.Estimate
	)
	start := make(chan struct{})
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			est, _, _, err := a.Estimate("ph", b, 0)
			if err != nil {
				t.Error(err)
			}
			got[g] = est
		}(g)
	}
	close(start)
	wg.Wait()
	if n := builds.Value() - before; n != 2 {
		t.Fatalf("%d goroutines first-touching two tables built PH summaries %d times, want 2", G, n)
	}
	for g := 1; g < G; g++ {
		if !sameBits(got[g], got[0]) {
			t.Fatalf("goroutine %d got %+v, goroutine 0 %+v", g, got[g], got[0])
		}
	}
}

// A table whose image tombstones slots reports the live count, and what the
// estimators read of it is the live items in id order — exactly a table built
// from the survivors.
func TestLenAndLiveDataFollowTheImage(t *testing.T) {
	const level = 5
	c, _ := NewCatalogAtLevel(level)
	d := datagen.Uniform("t", 1000, 0.02, 7)
	full, err := c.BuildTable(d)
	if err != nil {
		t.Fatal(err)
	}
	if live, built := full.LiveData(); live != full.Data || built != 0 {
		t.Fatal("a table with every slot live must hand out Data itself")
	}

	// Tombstone every third slot of the image; ids are read back through
	// VisitItems, the slot order the bitmap is indexed by.
	dead := make([]uint64, (full.Packed.Len()+63)/64)
	deadID := map[int]bool{}
	slot := 0
	full.Packed.VisitItems(func(id int, _ geom.Rect) {
		if slot%3 == 0 {
			dead[slot>>6] |= 1 << (uint(slot) & 63)
			deadID[id] = true
		}
		slot++
	})
	churned := unmemoized(full)
	churned.Packed = full.Packed.WithOverlay(dead, nil)

	var survivors []geom.Rect
	for id, r := range full.Data.Items {
		if !deadID[id] {
			survivors = append(survivors, r)
		}
	}
	if churned.Len() != len(survivors) || churned.Data.Len() != 1000 {
		t.Fatalf("Len = %d (Data.Len %d), want the %d live items", churned.Len(), churned.Data.Len(), len(survivors))
	}
	live, built := churned.LiveData()
	if !reflect.DeepEqual(live.Items, survivors) || built == 0 {
		t.Fatalf("LiveData holds %d items (built %v), want the %d survivors in id order", live.Len(), built, len(survivors))
	}
	if again, built := churned.LiveData(); again != live || built != 0 {
		t.Fatal("second LiveData call rebuilt the view")
	}
	for _, method := range []string{"ph", "basicgh"} {
		x, err := estimatorFor(method, level, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.summary(churned)
		if err != nil {
			t.Fatal(err)
		}
		tech := core.Technique(histogram.MustPH(level))
		if method == "basicgh" {
			tech = histogram.MustBasicGH(level)
		}
		want, err := tech.Build(dataset.New("t", geom.UnitSquare, survivors))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s summary of the churned table differs from a build over its survivors", method)
		}
	}
}

// BenchmarkEstimatePH is a ph estimate of two 100k-item tables: cold builds
// both tables' summaries (a table value's first touch), warm answers from the
// memo.
func BenchmarkEstimatePH(b *testing.B) {
	c := NewCatalog()
	ta, err := c.BuildTable(datagen.Uniform("a", 100_000, 0.003, 1))
	if err != nil {
		b.Fatal(err)
	}
	tb, err := c.BuildTable(datagen.MultiCluster("b", 100_000, 8, 0.05, 0.003, 2))
	if err != nil {
		b.Fatal(err)
	}
	estimate := func(x, y *Table) {
		if _, _, _, err := x.Estimate("ph", y, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			estimate(unmemoized(ta), unmemoized(tb))
		}
	})
	b.Run("warm", func(b *testing.B) {
		estimate(ta, tb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimate(ta, tb)
		}
	})
}

// BenchmarkPlanWindowed plans a windowed four-table chain at the paper's
// statistics level: cold computes its three pair selectivities (16 384 cells
// each), warm reads them off the tables.
func BenchmarkPlanWindowed(b *testing.B) {
	tabs := memoTables(b, StatisticsLevel)
	q := memoQueries[2]
	attach := func(fresh bool) *Catalog {
		c := NewCatalog()
		for _, tab := range tabs {
			if fresh {
				tab = unmemoized(tab)
			}
			if err := c.Attach(tab); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := attach(true)
			b.StartTimer()
			if _, err := c.Plan(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := func(q Query) func(*testing.B) {
		return func(b *testing.B) {
			c := attach(false)
			if _, err := c.Plan(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Plan(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("warm", warm(q))
	// The benchmark workloads' shape: one 0.3-side window on one table of a
	// three- or four-table chain, the window pricing most of the plan.
	window := map[string]geom.Rect{"b": geom.NewRect(0.2, 0.35, 0.5, 0.65)}
	b.Run("warm/chain3-window0.3", warm(Query{Tables: []string{"a", "b", "c"},
		Predicates: []Predicate{{"a", "b"}, {"b", "c"}}, Windows: window}))
	b.Run("warm/chain4-window0.3", warm(Query{Tables: []string{"a", "b", "c", "d"},
		Predicates: []Predicate{{"a", "b"}, {"b", "c"}, {"c", "d"}}, Windows: window}))
}
