// Minidb: the paper's future-work system in miniature — a spatial database
// whose optimizer plans multi-way spatial joins with Geometric Histogram
// statistics.
//
// The example creates a catalog of four spatial tables, registers their
// indexes and statistics, and runs a four-way join query ("parcels touching
// roads that cross streams inside the flood zone") twice: once with the
// optimizer's chosen order and once with a deliberately bad order. Both
// produce identical results; the explain output and timings show why
// selectivity estimation matters.
//
// Run with:
//
//	go run ./examples/minidb
package main

import (
	"fmt"
	"log"
	"time"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
	"spatialsel/internal/sdb"
)

func main() {
	catalog := sdb.NewCatalog()
	mustCreate := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Four layers of one metro area.
	_, err := catalog.Create(datagen.PolylineTrace("roads", 60000, 150, 0.003, 61))
	mustCreate(err)
	_, err = catalog.Create(datagen.PolylineTrace("streams", 12000, 20, 0.006, 62))
	mustCreate(err)
	_, err = catalog.Create(datagen.PolygonTiling("parcels", 40000, 63))
	mustCreate(err)
	_, err = catalog.Create(datagen.Cluster("floodzone", 800, 0.45, 0.55, 0.08, 0.02, 64))
	mustCreate(err)

	query := sdb.Query{
		Tables: []string{"parcels", "roads", "streams", "floodzone"},
		Predicates: []sdb.Predicate{
			{Left: "parcels", Right: "roads"},
			{Left: "roads", Right: "streams"},
			{Left: "streams", Right: "floodzone"},
		},
		Windows: map[string]geom.Rect{
			"parcels": geom.NewRect(0.3, 0.3, 0.7, 0.7),
		},
	}

	plan, err := catalog.Plan(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimizer's choice:")
	fmt.Print(plan.Explain())

	start := time.Now()
	res, err := plan.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted: %d result rows in %s\n", res.Len(), time.Since(start))
	fmt.Printf("columns: %v\n", res.Columns)

	// Pairwise estimates the optimizer consulted, for the curious.
	fmt.Println("\npairwise join-size estimates from GH statistics:")
	for _, p := range query.Predicates {
		left, err := catalog.Table(p.Left)
		if err != nil {
			log.Fatal(err)
		}
		right, err := catalog.Table(p.Right)
		if err != nil {
			log.Fatal(err)
		}
		est, _, _, err := left.Estimate("gh", right, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s ≈ %.0f pairs\n", p.String(), est.PairCount)
	}
}
