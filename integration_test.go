package spatialsel

import (
	"context"
	"testing"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/experiments"
	"spatialsel/internal/histogram"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sample"
	"spatialsel/internal/sweep"
)

// TestJoinEnginesAgree cross-validates the exact join implementations on
// every paper workload: the plane sweep, the R-tree synchronized traversal
// over pointer trees and the tile sweep over their packed images with a pool
// of 4 must report identical counts.
func TestJoinEnginesAgree(t *testing.T) {
	for _, p := range datagen.PaperPairs(0.005) {
		want := sweep.Count(p.A.Items, p.B.Items)
		ta, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(p.A.Items))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(p.B.Items))
		if err != nil {
			t.Fatal(err)
		}
		if got := rtree.JoinCount(ta, tb); got != want {
			t.Errorf("%s: rtree join %d != sweep %d", p.Name, got, want)
		}
		got := 0
		if err := rtree.PackedJoinFuncParallelContext(context.Background(), rtree.Pack(ta), rtree.Pack(tb), 4, func(int, int) { got++ }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: pooled packed join %d != sweep %d", p.Name, got, want)
		}
	}
}

// TestEveryTechniqueRunsOnEveryWorkload smoke-tests the full estimator
// matrix: every technique must produce a finite estimate on every paper
// pair, and GH must be the most accurate histogram on average.
func TestEveryTechniqueRunsOnEveryWorkload(t *testing.T) {
	techniques := []core.Technique{
		histogram.NewParametric(),
		histogram.MustPH(4),
		histogram.MustGH(4),
		histogram.MustBasicGH(4),
		sample.MustNew(sample.RS, 0.2),
		sample.MustNew(sample.RSWR, 0.2),
		sample.MustNew(sample.SS, 0.2),
	}
	sums := map[string]float64{}
	for _, p := range datagen.PaperPairs(0.01) {
		truth := core.ComputeGroundTruth(p.A, p.B)
		if truth.PairCount == 0 {
			t.Fatalf("%s: empty ground truth", p.Name)
		}
		for _, tech := range techniques {
			res, err := core.Run(tech, p.A, p.B, truth)
			if err != nil {
				t.Fatalf("%s / %s: %v", p.Name, tech.Name(), err)
			}
			if res.Estimate.PairCount < 0 || res.ErrorPct < 0 {
				t.Fatalf("%s / %s: nonsense result %+v", p.Name, tech.Name(), res)
			}
			sums[tech.Name()] += res.ErrorPct
		}
	}
	if sums["GH(h=4)"] >= sums["Parametric"] {
		t.Errorf("GH total error %.1f not below parametric %.1f", sums["GH(h=4)"], sums["Parametric"])
	}
	if sums["GH(h=4)"] >= sums["BasicGH(h=4)"] {
		t.Errorf("revised GH total error %.1f not below basic %.1f", sums["GH(h=4)"], sums["BasicGH(h=4)"])
	}
}

// TestHistogramFileWorkflow drives the on-disk workflow end to end: build,
// save, reload in a "different process" (fresh technique value), estimate.
func TestHistogramFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	p, err := datagen.PairByName("SCRC-SURA", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	builder := histogram.MustGH(5)
	sa, err := builder.Build(p.A)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := builder.Build(p.B)
	if err != nil {
		t.Fatal(err)
	}
	if err := histogram.SaveSummary(dir+"/a.shf", sa); err != nil {
		t.Fatal(err)
	}
	if err := histogram.SaveSummary(dir+"/b.shf", sb); err != nil {
		t.Fatal(err)
	}
	la, err := histogram.LoadSummary(dir + "/a.shf")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := histogram.LoadSummary(dir + "/b.shf")
	if err != nil {
		t.Fatal(err)
	}
	est, err := histogram.MustGH(5).Estimate(la, lb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := builder.Estimate(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if est != want {
		t.Fatalf("estimate from files %+v != in-memory %+v", est, want)
	}
}

// TestFigureHarnessesEndToEnd runs both figure harnesses at a tiny scale as
// a final integration check of the reproduction machinery.
func TestFigureHarnessesEndToEnd(t *testing.T) {
	ws, err := experiments.PrepareAll(0.002)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := experiments.RunFigure7(w, 3); err != nil {
			t.Fatalf("%s fig7: %v", w.Name, err)
		}
	}
	if _, err := experiments.RunFigure6(ws[0], 1); err != nil {
		t.Fatalf("fig6: %v", err)
	}
	if _, err := experiments.RunRangeQueries(ws[3], 4, 5, 1); err != nil {
		t.Fatalf("range: %v", err)
	}
}
