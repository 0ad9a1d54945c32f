package iomodel

import (
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/rtree"
)

func uniformTree(t testing.TB, n int, seed int64) *rtree.Tree {
	t.Helper()
	d := datagen.Uniform("d", n, 0.01, seed)
	tr, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(d.Items))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLevelStatsShape(t *testing.T) {
	tr := uniformTree(t, 20000, 120)
	levels := tr.LevelStats()
	if len(levels) != tr.Height() {
		t.Fatalf("levels = %d, height = %d", len(levels), tr.Height())
	}
	if levels[0].Nodes != 1 {
		t.Fatalf("root level nodes = %d", levels[0].Nodes)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Nodes <= levels[i-1].Nodes {
			t.Fatalf("level %d nodes %d not above level %d nodes %d",
				i+1, levels[i].Nodes, i, levels[i-1].Nodes)
		}
		// MBRs shrink as we descend.
		if levels[i].AvgArea >= levels[i-1].AvgArea {
			t.Fatalf("level %d avg area %g not below parent %g",
				i+1, levels[i].AvgArea, levels[i-1].AvgArea)
		}
	}
	// Empty tree.
	empty := rtree.TreeOf(rtree.PackItems(nil))
	if got := empty.LevelStats(); got != nil {
		t.Fatalf("empty LevelStats = %v", got)
	}
	if _, ok := empty.RootMBR(); ok {
		t.Fatal("empty RootMBR ok")
	}
	if m, ok := tr.RootMBR(); !ok || m.Area() <= 0 {
		t.Fatalf("RootMBR = %v/%v", m, ok)
	}
}

func TestJoinAccessesUniformBand(t *testing.T) {
	ta := uniformTree(t, 20000, 123)
	tb := uniformTree(t, 20000, 124)
	predicted := JoinAccesses(ta.LevelStats(), tb.LevelStats())
	measured := float64(MeasureJoinAccesses(ta, tb))
	ratio := predicted / measured
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("join: predicted %.0f vs measured %.0f (ratio %.2f)", predicted, measured, ratio)
	}
}

func TestJoinAccessesDifferentHeights(t *testing.T) {
	ta := uniformTree(t, 30000, 125)
	tb := uniformTree(t, 300, 126)
	if ta.Height() == tb.Height() {
		t.Skip("trees unexpectedly equal height")
	}
	predicted := JoinAccesses(ta.LevelStats(), tb.LevelStats())
	measured := float64(MeasureJoinAccesses(ta, tb))
	if predicted <= 0 {
		t.Fatal("no prediction for unequal heights")
	}
	ratio := predicted / measured
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("unequal heights: predicted %.0f vs measured %.0f (ratio %.2f)",
			predicted, measured, ratio)
	}
}

func TestJoinAccessesEmpty(t *testing.T) {
	tr := uniformTree(t, 100, 127)
	if got := JoinAccesses(nil, tr.LevelStats()); got != 0 {
		t.Fatalf("empty join accesses %g", got)
	}
	if got := JoinAccesses(tr.LevelStats(), nil); got != 0 {
		t.Fatalf("empty join accesses %g", got)
	}
}

func TestSkewDegradesPrediction(t *testing.T) {
	// Documented behaviour: on clustered data the uniformity assumption
	// misses — two trees over the same cluster have node MBRs that meet far
	// more often than uniformly placed ones would, so the model
	// underestimates the join's accesses.
	load := func(seed int64) *rtree.Tree {
		d := datagen.Cluster("c", 20000, 0.3, 0.3, 0.05, 0.01, seed)
		tr, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(d.Items))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ta, tb := load(128), load(129)
	predicted := JoinAccesses(ta.LevelStats(), tb.LevelStats())
	measured := float64(MeasureJoinAccesses(ta, tb))
	if predicted >= measured {
		t.Errorf("prediction %.0f did not underestimate measured %.0f on clustered data", predicted, measured)
	}
}
