package sdb

import (
	"fmt"
	"math"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
)

// bestLeftDeepCost enumerates every connected left-deep join order of q's
// tables (n ≤ 4 keeps n! small) under the planner's own cost model — Σ
// intermediate rows, GH selectivities, independent predicates — and returns
// the cheapest order's cost: the exhaustive reference for the greedy Plan.
func bestLeftDeepCost(t *testing.T, c *Catalog, q Query) float64 {
	tables, err := c.validate(q)
	if err != nil {
		t.Fatal(err)
	}
	gh, _ := histogram.NewGH(c.level)
	sel := map[Predicate]float64{}
	for _, p := range q.Predicates {
		est, _ := gh.Estimate(tables[p.Left].Stats, tables[p.Right].Stats) // Plan(q) already made this call
		if sel[p] = est.Selectivity; sel[p] <= 0 {
			sel[p] = 1e-12
		}
	}
	best := math.Inf(1)
	var extend func(joined map[string]bool, rows, cost float64)
	extend = func(joined map[string]bool, rows, cost float64) {
		if len(joined) == len(q.Tables) {
			best = math.Min(best, cost)
		}
		for _, name := range q.Tables {
			factor, connected := 1.0, false
			for _, p := range q.Predicates {
				if p.Left == name && joined[p.Right] || p.Right == name && joined[p.Left] {
					factor, connected = factor*sel[p], true
				}
			}
			if joined[name] || !connected {
				continue
			}
			size := rows * effectiveCard(q, name, tables[name]) * factor
			joined[name] = true
			extend(joined, size, cost+size)
			delete(joined, name)
		}
	}
	for _, base := range q.Tables { // the base scan is not an intermediate result
		extend(map[string]bool{base: true}, effectiveCard(q, base, tables[base]), 0)
	}
	return best
}

// TestGreedyPlanAgainstEveryOrder is why one planner is enough. With three
// tables every order ends in the same final cardinality, so the cheapest plan
// is the one with the smallest first join — which is what greedy picks: its
// cost must equal the enumerated optimum on every chain, star and cycle. With
// four tables greedy can be beaten; the worst ratio seen is logged.
func TestGreedyPlanAgainstEveryOrder(t *testing.T) {
	c, err := NewCatalogAtLevel(6)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"t1", "t2", "t3", "t4", "t5"}
	for _, d := range []*dataset.Dataset{
		datagen.Cluster("t1", 2000, 0.3, 0.3, 0.08, 0.01, 310),
		datagen.Cluster("t2", 1500, 0.32, 0.32, 0.1, 0.01, 311),
		datagen.Uniform("t3", 2500, 0.01, 312),
		datagen.Cluster("t4", 1000, 0.7, 0.7, 0.06, 0.01, 313),
		datagen.Uniform("t5", 800, 0.02, 314),
	} {
		if _, err := c.Create(d); err != nil {
			t.Fatal(err)
		}
	}
	// ratio plans q (every shape also with a window on its first table) and
	// returns the worst greedy cost over the enumerated optimum.
	ratio := func(q Query) float64 {
		worst := 0.0
		for _, windows := range []map[string]geom.Rect{nil, {q.Tables[0]: geom.NewRect(0.2, 0.2, 0.5, 0.5)}} {
			q.Windows = windows
			plan, err := c.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			r := plan.EstCost / bestLeftDeepCost(t, c, q)
			if r < 1-1e-9 {
				t.Fatalf("%v: greedy cost %g below the enumerated optimum (ratio %g)", q, plan.EstCost, r)
			}
			worst = math.Max(worst, r)
		}
		return worst
	}
	chain := func(ts ...string) Query {
		q := Query{Tables: ts}
		for i := 1; i < len(ts); i++ {
			q.Predicates = append(q.Predicates, Predicate{ts[i-1], ts[i]})
		}
		return q
	}
	star := func(ts ...string) Query {
		q := Query{Tables: ts}
		for _, leaf := range ts[1:] {
			q.Predicates = append(q.Predicates, Predicate{ts[0], leaf})
		}
		return q
	}
	worst4, worstShape := 0.0, ""
	for _, a := range names {
		for _, b := range names {
			for _, m := range names {
				if a == b || a == m || b == m {
					continue
				}
				// A three-table star centred on m is the chain a–m–b.
				cycle := chain(a, m, b)
				cycle.Predicates = append(cycle.Predicates, Predicate{b, a})
				for _, q := range []Query{chain(a, m, b), cycle} {
					if r := ratio(q); r > 1+1e-9 {
						t.Errorf("%v: greedy cost is %.6f× the enumerated optimum, want 1", q, r)
					}
				}
				for _, d := range names {
					if d == a || d == b || d == m {
						continue
					}
					for _, q := range []Query{chain(a, m, b, d), star(a, m, b, d)} {
						if r := ratio(q); r > worst4 {
							worst4, worstShape = r, fmt.Sprint(q)
						}
					}
				}
			}
		}
	}
	t.Logf("worst four-table greedy/optimum cost ratio: %.3f on %s", worst4, worstShape)
}
