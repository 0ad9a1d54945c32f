// Approxcount: answer an approximate aggregate query without running the
// join — the paper's "how many bridges are there?" use case (§1).
//
// A bridge exists roughly wherever a road crosses a river, so the
// approximate number of bridges in a region is the estimated size of the
// roads ⋈ rivers spatial join restricted to that region. This example builds
// GH histograms once, then answers several regional bridge-count queries by
// clipping the datasets to each query window — comparing the instant
// estimate against the exact join each time.
//
// Run with:
//
//	go run ./examples/approxcount
package main

import (
	"fmt"
	"log"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/sweep"
)

// clip restricts a dataset to the items intersecting the window, renaming it
// for readability. In a real SDBMS this is the index range scan feeding the
// join.
func clip(d *dataset.Dataset, window geom.Rect) *dataset.Dataset {
	var items []geom.Rect
	for _, r := range d.Items {
		if r.Intersects(window) {
			items = append(items, r)
		}
	}
	return dataset.New(d.Name+"@"+window.String(), d.Extent, items)
}

func main() {
	roads := datagen.PolylineTrace("roads", 60000, 150, 0.003, 21)
	rivers := datagen.PolylineTrace("rivers", 12000, 20, 0.006, 22)

	gh := histogram.MustGH(7)

	queries := []struct {
		name   string
		window geom.Rect
	}{
		{"whole map", geom.UnitSquare},
		{"north-west county", geom.NewRect(0, 0.5, 0.5, 1)},
		{"downtown", geom.NewRect(0.4, 0.4, 0.6, 0.6)},
		{"river delta", geom.NewRect(0.7, 0.0, 1.0, 0.3)},
	}

	fmt.Printf("%-20s %14s %14s %10s %14s %14s\n",
		"region", "est. bridges", "actual", "error", "est. time", "join time")
	for _, q := range queries {
		r := clip(roads, q.window)
		v := clip(rivers, q.window)
		if r.Len() == 0 || v.Len() == 0 {
			fmt.Printf("%-20s %14s\n", q.name, "no data")
			continue
		}
		start := time.Now()
		hr, err := gh.Build(r)
		if err != nil {
			log.Fatal(err)
		}
		hv, err := gh.Build(v)
		if err != nil {
			log.Fatal(err)
		}
		est, err := gh.Estimate(hr, hv)
		if err != nil {
			log.Fatal(err)
		}
		estTime := time.Since(start)

		start = time.Now()
		actual := sweep.Count(r.Items, v.Items)
		joinTime := time.Since(start)

		fmt.Printf("%-20s %14.0f %14d %9.1f%% %14s %14s\n",
			q.name, est.PairCount, actual,
			100*core.RelError(est.PairCount, float64(actual)),
			estTime, joinTime)
	}
	fmt.Println("\n(bridge counts are filter-step approximations: intersecting MBRs of road and river segments)")
}
