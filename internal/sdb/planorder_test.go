package sdb

import (
	"fmt"
	"math"
	"strings"
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
	tables, err := c.validate(&q)
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

// TestRepeatedPredicateCountsOnce: a join condition stated twice, or again
// with its sides swapped, is still one condition. The plan of the padded
// query must equal the plan of the plain one bit for bit — estimates, cost,
// EXPLAIN text, the per-step predicate lists the executor verifies — and
// return the same rows.
func TestRepeatedPredicateCountsOnce(t *testing.T) {
	c := uniformCatalog(t, 3000, "a", "b", "c")
	plain := Query{Tables: []string{"a", "b", "c"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}}}
	padded := plain
	padded.Predicates = []Predicate{{"a", "b"}, {"b", "c"}, {"c", "b"}, {"b", "c"}, {"b", "a"}}
	given := append([]Predicate(nil), padded.Predicates...)
	want, err := c.Plan(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Plan(padded)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(padded.Predicates) != fmt.Sprint(given) {
		t.Fatalf("Plan rewrote the caller's predicate list: %v", padded.Predicates)
	}
	if got.Explain() != want.Explain() {
		t.Fatalf("padded query plans differently:\n%s\nplain query:\n%s", got.Explain(), want.Explain())
	}
	if got.EstCost != want.EstCost {
		t.Fatalf("EstCost = %g, plain query %g", got.EstCost, want.EstCost)
	}
	for i, s := range got.Steps {
		if w := want.Steps[i]; s.EstRows != w.EstRows || fmt.Sprint(s.Against) != fmt.Sprint(w.Against) {
			t.Fatalf("step %d = %+v, plain query %+v", i, s, w)
		}
	}
	gotRes, err := got.Execute()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(gotRes.Rows, wantRes.Rows) || wantRes.Len() == 0 {
		t.Fatalf("padded query returned %d rows, plain query %d", gotRes.Len(), wantRes.Len())
	}
	// The estimate stays an estimate of the answer (the parent planned 2e-6
	// rows for this query).
	if est := got.Steps[1].EstRows; est < float64(wantRes.Len())/2 || est > float64(wantRes.Len())*2 {
		t.Fatalf("est_rows %g for %d actual rows", est, wantRes.Len())
	}
}

// TestInvalidWindowReportedInNameOrder: with several invalid windows the
// error names the first by table name, whatever order the map yields them in.
func TestInvalidWindowReportedInNameOrder(t *testing.T) {
	c := testCatalog(t)
	bad := geom.Rect{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}
	q := Query{
		Tables:     []string{"hot", "warm", "cold"},
		Predicates: []Predicate{{"hot", "warm"}, {"warm", "cold"}},
		Windows:    map[string]geom.Rect{"hot": bad, "warm": bad, "cold": bad},
	}
	for i := 0; i < 32; i++ {
		_, err := c.Plan(q)
		if err == nil || !strings.Contains(err.Error(), `"cold"`) {
			t.Fatalf("attempt %d: err = %v, want the invalid window on \"cold\"", i, err)
		}
	}
}
