package sdb

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/histogram"
)

// TestStatsDoNotDependOnWorkers builds one table large enough for GH.Build to
// shard its statistics, at GOMAXPROCS 1–4: every cell of the statistics (the
// float64 bits their histogram file holds) and the GH estimate against a
// second table must be the same at every worker count, so a served estimate
// does not depend on the machine.
func TestStatsDoNotDependOnWorkers(t *testing.T) {
	d := datagen.Cluster("clustered", 120_000, 0.4, 0.6, 0.15, 0.05, 311)
	c := NewCatalog()
	partner, err := c.BuildTable(datagen.Cluster("partner", 20_000, 0.4, 0.6, 0.1, 0.05, 313))
	if err != nil {
		t.Fatal(err)
	}
	gh := histogram.MustGH(StatisticsLevel)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var firstCells []byte
	var firstEst float64
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		tab, err := c.BuildTable(d)
		if err != nil {
			t.Fatal(err)
		}
		var cells bytes.Buffer
		if err := histogram.WriteSummary(&cells, tab.Stats); err != nil {
			t.Fatal(err)
		}
		est, err := gh.Estimate(tab.Stats, partner.Stats)
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			firstCells, firstEst = cells.Bytes(), est.PairCount
			continue
		}
		if n := cellsDiffering(cells.Bytes(), firstCells); n != 0 {
			t.Errorf("GOMAXPROCS %d: %d statistics cells differ from GOMAXPROCS 1's", procs, n)
		}
		if math.Float64bits(est.PairCount) != math.Float64bits(firstEst) {
			t.Errorf("GOMAXPROCS %d: estimate %.17g, at GOMAXPROCS 1 %.17g", procs, est.PairCount, firstEst)
		}
	}
}

// cellsDiffering counts the GH cells whose bits differ between two histogram
// files of the same table: a file ends in its cells, four float64s (32 bytes)
// each.
func cellsDiffering(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	cells := 1 << (2 * StatisticsLevel)
	a, b = a[len(a)-32*cells:], b[len(b)-32*cells:]
	n := 0
	for k := 0; k < cells; k++ {
		if !bytes.Equal(a[32*k:32*k+32], b[32*k:32*k+32]) {
			n++
		}
	}
	return n
}
