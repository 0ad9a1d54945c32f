// Queryplanner: use join-selectivity estimates the way a query optimizer
// does — to order a multi-way spatial join.
//
// The scenario is the paper's motivating SDBMS use case. A query joins three
// spatial relations (roads ⋈ rivers ⋈ flood zones, each predicate
// "intersects"). The optimizer must pick which pairwise join to run first:
// the cheapest plan starts with the most selective join because it produces
// the smallest intermediate result. With GH histograms on each relation, the
// planner estimates all pairwise selectivities in microseconds and picks the
// best plan — and the example then executes all plans to show the estimate
// ranked them correctly.
//
// Run with:
//
//	go run ./examples/queryplanner
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/histogram"
	"spatialsel/internal/sweep"
)

// relation bundles a dataset with its prebuilt histogram.
type relation struct {
	data *dataset.Dataset
	hist core.Summary
}

func main() {
	gh := histogram.MustGH(7)

	// Three relations with very different overlap structure: roads cross
	// rivers rarely, flood zones hug rivers, roads blanket everything.
	load := func(d *dataset.Dataset) relation {
		h, err := gh.Build(d)
		if err != nil {
			log.Fatal(err)
		}
		return relation{data: d, hist: h}
	}
	rels := map[string]relation{
		"roads":  load(datagen.PolylineTrace("roads", 40000, 120, 0.003, 11)),
		"rivers": load(datagen.PolylineTrace("rivers", 8000, 15, 0.006, 12)),
		"floods": load(datagen.Cluster("floods", 12000, 0.35, 0.6, 0.1, 0.01, 13)),
	}

	// Estimate every pairwise join selectivity from histograms alone.
	type candidate struct {
		left, right string
		est         core.Estimate
	}
	var plans []candidate
	started := time.Now()
	for _, pair := range [][2]string{{"roads", "rivers"}, {"roads", "floods"}, {"rivers", "floods"}} {
		l, r := rels[pair[0]], rels[pair[1]]
		est, err := gh.Estimate(l.hist, r.hist)
		if err != nil {
			log.Fatal(err)
		}
		plans = append(plans, candidate{left: pair[0], right: pair[1], est: est})
	}
	planningTime := time.Since(started)

	// The optimizer picks the join with the smallest estimated result.
	sort.Slice(plans, func(i, j int) bool {
		return plans[i].est.PairCount < plans[j].est.PairCount
	})

	fmt.Printf("planning took %s using histograms only\n\n", planningTime)
	fmt.Printf("%-16s %16s %16s %12s\n", "first join", "est. pairs", "actual pairs", "est. error")
	correctOrder := true
	var prevActual int
	for i, p := range plans {
		l, r := rels[p.left], rels[p.right]
		actual := sweep.Count(l.data.Items, r.data.Items)
		if i > 0 && actual < prevActual {
			correctOrder = false
		}
		prevActual = actual
		errPct := 100 * core.RelError(p.est.PairCount, float64(actual))
		fmt.Printf("%-16s %16.0f %16d %11.1f%%\n",
			p.left+" ⋈ "+p.right, p.est.PairCount, actual, errPct)
	}
	fmt.Println()
	if correctOrder {
		fmt.Printf("plan choice: start with %s ⋈ %s — estimates ranked all plans correctly\n",
			plans[0].left, plans[0].right)
	} else {
		fmt.Println("estimates mis-ranked the plans on this data (rare; try another seed)")
	}
}
