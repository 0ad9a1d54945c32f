// Package spatialsel's top-level benchmarks regenerate every evaluation
// artifact of the paper (one benchmark per figure panel) and run the
// ablations called out in DESIGN.md.
//
// The figure benchmarks execute the same harnesses as cmd/experiments and
// attach the headline numbers as benchmark metrics (err% — estimation error;
// t1%/t2% — estimation time relative to the join without/with existing
// R-trees; space% — summary size relative to the R-trees), so `go test
// -bench .` doubles as a compact reproduction report. Dataset scale is 0.02
// of the paper's cardinalities by default; override with
// SPATIALSEL_BENCH_SCALE for full-size runs.
package spatialsel

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/experiments"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/iomodel"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sample"
	"spatialsel/internal/sdb"
	"spatialsel/internal/sweep"
)

// benchScale is the dataset scale used by the figure benchmarks.
func benchScale() float64 {
	if s := os.Getenv("SPATIALSEL_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.02
}

var (
	workloadsOnce sync.Once
	workloadsVal  []*experiments.Workload
	workloadsErr  error
)

// benchWorkloads prepares the four paper workloads once per test binary.
func benchWorkloads(b *testing.B) []*experiments.Workload {
	b.Helper()
	workloadsOnce.Do(func() {
		workloadsVal, workloadsErr = experiments.PrepareAll(benchScale())
	})
	if workloadsErr != nil {
		b.Fatal(workloadsErr)
	}
	return workloadsVal
}

func workloadByName(b *testing.B, name string) *experiments.Workload {
	b.Helper()
	for _, w := range benchWorkloads(b) {
		if w.Name == name {
			return w
		}
	}
	b.Fatalf("unknown workload %s", name)
	return nil
}

// --- Figure 6: sampling techniques, one benchmark per panel (a)–(d) ---

func benchmarkFigure6(b *testing.B, pair string) {
	w := workloadByName(b, pair)
	b.ResetTimer()
	var rows []experiments.SamplingResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFigure6(w, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the paper's headline configuration: 10/10 RSWR.
	for _, r := range rows {
		if r.Combo == "10/10" && r.Method == "RSWR" {
			b.ReportMetric(r.ErrorPct, "err%")
			b.ReportMetric(r.EstTime1Pct, "t1%")
			b.ReportMetric(r.EstTime2Pct, "t2%")
		}
	}
}

func BenchmarkFigure6a_TS_TCB(b *testing.B)    { benchmarkFigure6(b, "TS-TCB") }
func BenchmarkFigure6b_CAS_CAR(b *testing.B)   { benchmarkFigure6(b, "CAS-CAR") }
func BenchmarkFigure6c_SP_SPG(b *testing.B)    { benchmarkFigure6(b, "SP-SPG") }
func BenchmarkFigure6d_SCRC_SURA(b *testing.B) { benchmarkFigure6(b, "SCRC-SURA") }

// --- Figure 7: histogram techniques, one benchmark per panel (a)–(d) ---

// figure7MaxLevel keeps bench runtime sane while covering the paper's sweet
// spots (PH level 5, GH level 7).
const figure7MaxLevel = 7

func benchmarkFigure7(b *testing.B, pair string) {
	w := workloadByName(b, pair)
	b.ResetTimer()
	var rows []experiments.HistogramResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFigure7(w, figure7MaxLevel)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the paper's headline configuration: GH at level 7.
	for _, r := range rows {
		if r.Technique == "GH" && r.Level == 7 {
			b.ReportMetric(r.ErrorPct, "err%")
			b.ReportMetric(r.EstTimePct, "t%")
			b.ReportMetric(r.SpacePct, "space%")
		}
	}
}

func BenchmarkFigure7a_TCB_TS(b *testing.B)    { benchmarkFigure7(b, "TS-TCB") }
func BenchmarkFigure7b_CAR_CAS(b *testing.B)   { benchmarkFigure7(b, "CAS-CAR") }
func BenchmarkFigure7c_SPG_SP(b *testing.B)    { benchmarkFigure7(b, "SP-SPG") }
func BenchmarkFigure7d_SCRC_SURA(b *testing.B) { benchmarkFigure7(b, "SCRC-SURA") }

// --- Component benchmarks: the costs behind every figure ---

func BenchmarkGroundTruthSweepJoin(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Count(w.A.Items, w.B.Items)
	}
}

func BenchmarkGHBuild(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	gh := histogram.MustGH(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gh.Build(w.A); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGHEstimate(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	gh := histogram.MustGH(7)
	sa, err := gh.Build(w.A)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := gh.Build(w.B)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gh.Estimate(sa, sb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPHBuild(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	ph := histogram.MustPH(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ph.Build(w.A); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPHEstimate(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	ph := histogram.MustPH(5)
	sa, _ := ph.Build(w.A)
	sb, _ := ph.Build(w.B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ph.Estimate(sa, sb); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 1 (DESIGN.md): R-tree join vs plane sweep on samples ---

func benchmarkSampleJoin(b *testing.B, strategy sample.JoinStrategy) {
	// TS-TCB is the densest pair at bench scale, keeping the sampled join
	// statistically meaningful.
	w := workloadByName(b, "TS-TCB")
	tech := sample.MustNew(sample.RSWR, 0.1, sample.WithStrategy(strategy))
	truth := w.Truth
	b.ResetTimer()
	var errPct float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(tech, w.A, w.B, truth)
		if err != nil {
			b.Fatal(err)
		}
		errPct = res.ErrorPct
	}
	b.ReportMetric(errPct, "err%")
}

func BenchmarkAblationSampleJoinRTree(b *testing.B) { benchmarkSampleJoin(b, sample.RTreeJoin) }
func BenchmarkAblationSampleJoinSweep(b *testing.B) { benchmarkSampleJoin(b, sample.SweepJoin) }

// --- Ablation 2: PH AvgSpan correction on/off ---

func benchmarkPHSpan(b *testing.B, opts ...histogram.PHOption) {
	w := workloadByName(b, "CAS-CAR")
	ph := histogram.MustPH(6, opts...)
	b.ResetTimer()
	var errPct float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(ph, w.A, w.B, w.Truth)
		if err != nil {
			b.Fatal(err)
		}
		errPct = res.ErrorPct
	}
	b.ReportMetric(errPct, "err%")
}

func BenchmarkAblationPHAvgSpanOn(b *testing.B) { benchmarkPHSpan(b) }
func BenchmarkAblationPHAvgSpanOff(b *testing.B) {
	benchmarkPHSpan(b, histogram.WithoutSpanCorrection())
}

// --- Ablation 3: revised vs basic GH at equal level ---

func benchmarkGHVariant(b *testing.B, tech core.Technique) {
	w := workloadByName(b, "TS-TCB")
	b.ResetTimer()
	var errPct float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(tech, w.A, w.B, w.Truth)
		if err != nil {
			b.Fatal(err)
		}
		errPct = res.ErrorPct
	}
	b.ReportMetric(errPct, "err%")
}

func BenchmarkAblationGHRevised(b *testing.B) { benchmarkGHVariant(b, histogram.MustGH(5)) }
func BenchmarkAblationGHBasic(b *testing.B)   { benchmarkGHVariant(b, histogram.MustBasicGH(5)) }

// --- Ablation 4: R-tree build strategies for samples ---

func benchmarkRTreeBuild(b *testing.B, load func([]rtree.Item, ...rtree.Option) (*rtree.Tree, error)) {
	w := workloadByName(b, "SCRC-SURA")
	items := rtree.ItemsFromRects(w.A.Items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := load(items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRTreeBuildSTR(b *testing.B)    { benchmarkRTreeBuild(b, rtree.BulkLoadSTR) }
func BenchmarkAblationRTreeBuildInsert(b *testing.B) { benchmarkRTreeBuild(b, rtree.BulkLoadInsert) }

// --- Exact-join engine comparison (cross-validation baselines) ---

func BenchmarkJoinEngines(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep.Count(w.A.Items, w.B.Items)
		}
	})
	b.Run("rtree", func(b *testing.B) {
		ta, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.A.Items))
		tb, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.B.Items))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rtree.JoinCount(ta, tb)
		}
	})
	b.Run("packed", func(b *testing.B) {
		ta, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.A.Items))
		tb, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.B.Items))
		pa, pb := rtree.Pack(ta), rtree.Pack(tb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rtree.PackedJoinCount(pa, pb)
		}
	})
}

// BenchmarkHistogramLevels sweeps GH build cost across levels, exposing the
// exponential space/time growth the paper's Figure 7 bottom panels show.
func BenchmarkHistogramLevels(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	for _, level := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("GH-h%d", level), func(b *testing.B) {
			gh := histogram.MustGH(level)
			for i := 0; i < b.N; i++ {
				if _, err := gh.Build(w.A); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSamplingMethods compares the draw cost of the three samplers —
// the reason the paper rejects SS (its Hilbert sort dominates).
func BenchmarkSamplingMethods(b *testing.B) {
	w := workloadByName(b, "CAS-CAR")
	for _, m := range []sample.Method{sample.RS, sample.RSWR, sample.SS} {
		b.Run(m.String(), func(b *testing.B) {
			tech := sample.MustNew(m, 0.1)
			for i := 0; i < b.N; i++ {
				if _, err := tech.Build(w.B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatagen measures workload generation itself (it is part of every
// experiment's setup cost).
func BenchmarkDatagen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		datagen.PaperPairs(0.01)
	}
}

// --- Extension benchmarks (DESIGN.md Ext1–Ext4) ---

// BenchmarkRangeEstimate compares range-query estimation across the three
// summary kinds against executing the query on the R-tree.
func BenchmarkRangeEstimate(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	q := geom.NewRect(0.3, 0.55, 0.55, 0.85)
	ghRaw, err := histogram.MustGH(7).Build(w.A)
	if err != nil {
		b.Fatal(err)
	}
	gh := ghRaw.(*histogram.GHSummary)
	phRaw, _ := histogram.MustPH(5).Build(w.A)
	ph := phRaw.(*histogram.PHSummary)
	parRaw, _ := histogram.NewParametric().Build(w.A)
	par := parRaw.(*histogram.ParametricSummary)
	tree, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.A.Items))

	actual := float64(len(tree.Search(q, nil)))
	b.Run("GH", func(b *testing.B) {
		var est float64
		for i := 0; i < b.N; i++ {
			est = gh.EstimateRange(q)
		}
		b.ReportMetric(core.RelativeError(est, actual), "err%")
	})
	b.Run("PH", func(b *testing.B) {
		var est float64
		for i := 0; i < b.N; i++ {
			est = ph.EstimateRange(q)
		}
		b.ReportMetric(core.RelativeError(est, actual), "err%")
	})
	b.Run("Parametric", func(b *testing.B) {
		var est float64
		for i := 0; i < b.N; i++ {
			est = par.EstimateRange(q)
		}
		b.ReportMetric(core.RelativeError(est, actual), "err%")
	})
	b.Run("RTreeExact", func(b *testing.B) {
		var out []int
		for i := 0; i < b.N; i++ {
			out = tree.Search(q, out[:0])
		}
	})
}

// BenchmarkIOModel compares the analytic join-access prediction the planner
// prices with (Plan.JoinIO) against an actual synchronized traversal,
// reporting the prediction/measurement ratio.
func BenchmarkIOModel(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	ta, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.A.Items))
	tb, _ := rtree.BulkLoadSTR(rtree.ItemsFromRects(w.B.Items))
	la, lb := ta.LevelStats(), tb.LevelStats()
	measured := float64(iomodel.MeasureJoinAccesses(ta, tb))
	b.ResetTimer()
	var predicted float64
	for i := 0; i < b.N; i++ {
		predicted = iomodel.JoinAccesses(la, lb)
	}
	if measured > 0 {
		b.ReportMetric(predicted/measured, "pred/meas")
	}
}

// BenchmarkSDBPlanAndExecute measures the mini-DBMS pipeline: planning a
// three-way join from statistics (microseconds) and executing it.
func BenchmarkSDBPlanAndExecute(b *testing.B) {
	c, err := sdb.NewCatalogAtLevel(6)
	if err != nil {
		b.Fatal(err)
	}
	for _, mk := range []func() (*sdb.Table, error){
		func() (*sdb.Table, error) { return c.Create(datagen.Cluster("x", 5000, 0.3, 0.3, 0.08, 0.01, 400)) },
		func() (*sdb.Table, error) { return c.Create(datagen.Cluster("y", 4000, 0.32, 0.32, 0.1, 0.01, 401)) },
		func() (*sdb.Table, error) { return c.Create(datagen.Uniform("z", 6000, 0.01, 402)) },
	} {
		if _, err := mk(); err != nil {
			b.Fatal(err)
		}
	}
	q := sdb.Query{
		Tables:     []string{"x", "y", "z"},
		Predicates: []sdb.Predicate{{Left: "x", Right: "y"}, {Left: "y", Right: "z"}},
	}
	b.Run("plan-greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Plan(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		plan, err := c.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGHMaintenance measures the per-update cost of keeping a GH
// histogram current, the number a rebuild amortizes against.
func BenchmarkGHMaintenance(b *testing.B) {
	w := workloadByName(b, "SCRC-SURA")
	builder, err := histogram.GHBuilderFrom(w.A, 7)
	if err != nil {
		b.Fatal(err)
	}
	items := w.A.Normalize().Items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := items[i%len(items)]
		if err := builder.Remove(r); err != nil {
			b.Fatal(err)
		}
		if err := builder.Add(r); err != nil {
			b.Fatal(err)
		}
	}
}
