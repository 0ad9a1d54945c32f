// Quickstart: estimate the selectivity of a spatial join with the Geometric
// Histogram in a dozen lines, and compare against the exact answer.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/histogram"
)

func main() {
	// Two synthetic datasets: 20k clustered rectangles (think: buildings of
	// a city) and 20k uniform rectangles (think: sensor coverage areas).
	buildings := datagen.Cluster("buildings", 20000, 0.4, 0.7, 0.12, 0.004, 1)
	sensors := datagen.Uniform("sensors", 20000, 0.004, 2)

	// Build a level-7 Geometric Histogram for each dataset. In a database
	// this happens once, offline, like any other statistics collection.
	gh := histogram.MustGH(7)
	hb, err := gh.Build(buildings)
	if err != nil {
		log.Fatal(err)
	}
	hs, err := gh.Build(sensors)
	if err != nil {
		log.Fatal(err)
	}

	// Estimate the join selectivity from the histograms alone.
	est, err := gh.Estimate(hb, hs)
	if err != nil {
		log.Fatal(err)
	}

	// Compare with the exact join (which the estimator never saw).
	truth := core.ComputeGroundTruth(buildings, sensors)

	fmt.Printf("estimated pairs: %10.0f   selectivity %.3e\n", est.PairCount, est.Selectivity)
	fmt.Printf("actual pairs:    %10d   selectivity %.3e\n", truth.PairCount, truth.Selectivity)
	fmt.Printf("error:           %9.2f%%\n", 100*core.RelError(est.Selectivity, truth.Selectivity))
	fmt.Printf("exact join took %s; estimation reads %d histogram bytes\n",
		truth.JoinTime, hb.SizeBytes()+hs.SizeBytes())
}
