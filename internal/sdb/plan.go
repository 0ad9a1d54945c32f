package sdb

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/rtree"
)

// Predicate is a spatial intersection join between two tables.
type Predicate struct {
	Left, Right string
}

// String implements fmt.Stringer.
func (p Predicate) String() string { return p.Left + " ⋈ " + p.Right }

// Query is a multi-way spatial intersection join over catalog tables, with
// optional per-table window filters.
type Query struct {
	Tables     []string
	Predicates []Predicate
	// Windows restricts a table to items intersecting the given rectangle
	// (in normalized unit-square coordinates) before joining.
	Windows map[string]geom.Rect
}

// Step is one join in a left-deep plan: the table joined in and the
// predicates (against already-joined tables) it must satisfy.
type Step struct {
	Table   string
	Against []Predicate
	EstRows float64 // estimated cardinality after this step
}

// Plan is an ordered execution strategy for a Query, bound to the tables it
// was planned on: executing or pricing it never consults the catalog again,
// so a table dropped or replaced after planning does not change its answer.
type Plan struct {
	query   Query
	Base    string // first table scanned
	Steps   []Step
	EstCost float64 // Σ estimated intermediate cardinalities
	// StatsBuild is the time planning spent computing pair estimates the
	// tables did not already hold (Table.Estimate's misses): 0 when every
	// predicate was a lookup.
	StatsBuild time.Duration
	tables     map[string]*Table

	// Workers sets the executor's parallelism for the first join's tile sweep
	// and the extension-step index probes: 0 (auto) uses GOMAXPROCS workers when
	// the inputs are large enough to benefit and serial execution otherwise;
	// 1 forces serial execution; values > 1 force that pool size.
	Workers int
}

// JoinWork prices the plan's first join as the executor runs it: the entries
// of the two packed images' tile runs over the tiles the sweep visits under
// the two tables' windows (rtree.JoinWork). EXPLAIN reports it.
func (p *Plan) JoinWork() int {
	first := p.Steps[0].Table
	return rtree.JoinWork(p.tables[p.Base].Packed, p.tables[first].Packed, p.window(p.Base), p.window(first))
}

// window returns the query's window on a table, nil when it sets none.
func (p *Plan) window(table string) *geom.Rect {
	if w, ok := p.query.Windows[table]; ok {
		return &w
	}
	return nil
}

// Explain renders the plan with its estimates, optimizer-style.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan (est. cost %.0f rows):\n", p.EstCost)
	fmt.Fprintf(&b, "  scan %s", p.Base)
	if w, ok := p.query.Windows[p.Base]; ok {
		fmt.Fprintf(&b, " window %v", w)
	}
	b.WriteString("\n")
	for _, s := range p.Steps {
		preds := make([]string, len(s.Against))
		for i, pr := range s.Against {
			preds[i] = pr.String()
		}
		fmt.Fprintf(&b, "  join %s on %s", s.Table, strings.Join(preds, " and "))
		if w, ok := p.query.Windows[s.Table]; ok {
			fmt.Fprintf(&b, " window %v", w)
		}
		fmt.Fprintf(&b, "  (est. %.0f rows)\n", s.EstRows)
	}
	return b.String()
}

// validate checks the query's structural soundness against the catalog and
// returns the query's tables, each resolved exactly once. It leaves q with
// predicates that are equal up to side order collapsed onto their first
// occurrence: a ⋈ b stated twice, or again as b ⋈ a, is one condition, and
// every reader of the list — selectivities, EXPLAIN, the executor's per-step
// checks — must count it once.
func (c *Catalog) validate(q *Query) (map[string]*Table, error) {
	if len(q.Tables) < 2 {
		return nil, fmt.Errorf("sdb: query needs at least two tables")
	}
	tables := make(map[string]*Table, len(q.Tables))
	for _, name := range q.Tables {
		if tables[name] != nil {
			return nil, fmt.Errorf("sdb: table %q listed twice (self joins need aliased copies)", name)
		}
		t, err := c.Table(name)
		if err != nil {
			return nil, err
		}
		tables[name] = t
	}
	if len(q.Predicates) == 0 {
		return nil, fmt.Errorf("sdb: query has no join predicates (Cartesian products are not supported)")
	}
	preds := make([]Predicate, 0, len(q.Predicates))
	seen := make(map[Predicate]bool, len(q.Predicates))
	for _, p := range q.Predicates {
		if tables[p.Left] == nil || tables[p.Right] == nil {
			return nil, fmt.Errorf("sdb: predicate %s references a table outside the query", p)
		}
		if p.Left == p.Right {
			return nil, fmt.Errorf("sdb: predicate %s joins a table with itself", p)
		}
		if !seen[p] && !seen[Predicate{Left: p.Right, Right: p.Left}] {
			seen[p] = true
			preds = append(preds, p)
		}
	}
	q.Predicates = preds
	// Windows are checked in table-name order, so a query with several bad
	// ones reports the same one every time.
	windowed := make([]string, 0, len(q.Windows))
	for t := range q.Windows {
		windowed = append(windowed, t)
	}
	sort.Strings(windowed)
	for _, t := range windowed {
		if tables[t] == nil {
			return nil, fmt.Errorf("sdb: window on table %q outside the query", t)
		}
		if w := q.Windows[t]; !w.Valid() {
			return nil, fmt.Errorf("sdb: invalid window %v on %q", w, t)
		}
	}
	// Connectivity: the predicate graph must span all tables.
	adj := map[string][]string{}
	for _, p := range q.Predicates {
		adj[p.Left] = append(adj[p.Left], p.Right)
		adj[p.Right] = append(adj[p.Right], p.Left)
	}
	visited := map[string]bool{q.Tables[0]: true}
	stack := []string{q.Tables[0]}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[t] {
			if !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	if len(visited) != len(q.Tables) {
		return nil, fmt.Errorf("sdb: join graph is disconnected")
	}
	return tables, nil
}

// effectiveCard returns a table's planner cardinality: its size, reduced by
// the estimated selectivity of its window filter if one is set.
func effectiveCard(q Query, name string, t *Table) float64 {
	n := float64(t.Len())
	if w, ok := q.Windows[name]; ok {
		est := t.Stats.EstimateRange(w)
		if est < n {
			n = est
		}
	}
	if n < 1 {
		n = 1 // avoid zero cardinalities destabilizing the cost model
	}
	return n
}

// Plan chooses a left-deep join order for q by greedy cost minimization:
// start with the predicate whose estimated join result is smallest, then
// repeatedly join in the connected table that keeps the intermediate result
// smallest. Selectivities come from the GH statistics; multiple predicates
// joining the same table multiply (independence assumption, as in System R).
//
// Greedy is the only planner: under the Σ-intermediate-rows cost model the
// final cardinality does not depend on the order, so for three tables greedy
// is optimal, and an exhaustive left-deep search chose a different order on 2
// of 3 120 four-table shapes over the paper's data (EXPERIMENTS.md, "Retired
// planner").
func (c *Catalog) Plan(q Query) (*Plan, error) {
	tables, err := c.validate(&q)
	if err != nil {
		return nil, err
	}
	// Pairwise selectivities per predicate.
	sel := make(map[Predicate]float64, len(q.Predicates))
	card := make(map[string]float64, len(q.Tables))
	for _, name := range q.Tables {
		card[name] = effectiveCard(q, name, tables[name])
	}
	var statsBuild time.Duration
	for _, p := range q.Predicates {
		est, _, took, err := tables[p.Left].Estimate("gh", tables[p.Right], 0)
		if err != nil {
			return nil, err
		}
		statsBuild += took
		s := est.Selectivity
		if s <= 0 {
			s = 1e-12 // keep the cost model strictly positive
		}
		sel[p] = s
	}

	// Greedy start: cheapest first join.
	best := q.Predicates[0]
	bestSize := math.Inf(1)
	for _, p := range q.Predicates {
		if size := card[p.Left] * card[p.Right] * sel[p]; size < bestSize {
			best, bestSize = p, size
		}
	}
	joined := map[string]bool{best.Left: true, best.Right: true}
	plan := &Plan{
		query:      q,
		Base:       best.Left,
		StatsBuild: statsBuild,
		tables:     tables,
		Steps: []Step{{
			Table:   best.Right,
			Against: []Predicate{best},
			EstRows: bestSize,
		}},
	}
	cost := bestSize
	rows := bestSize

	// Greedy extension until every table is joined.
	for len(joined) < len(q.Tables) {
		type candidate struct {
			table string
			preds []Predicate
			size  float64
		}
		var bestCand *candidate
		for _, t := range q.Tables {
			if joined[t] {
				continue
			}
			var preds []Predicate
			factor := 1.0
			for _, p := range q.Predicates {
				switch {
				case p.Left == t && joined[p.Right], p.Right == t && joined[p.Left]:
					preds = append(preds, p)
					factor *= sel[p]
				}
			}
			if len(preds) == 0 {
				continue // not yet connected
			}
			// System-R style independence estimate: each predicate scales
			// the Cartesian growth by its selectivity.
			size := rows * card[t] * factor
			if bestCand == nil || size < bestCand.size {
				bestCand = &candidate{table: t, preds: preds, size: size}
			}
		}
		if bestCand == nil {
			return nil, fmt.Errorf("sdb: internal: connected query became disconnected")
		}
		sort.Slice(bestCand.preds, func(i, j int) bool {
			return bestCand.preds[i].String() < bestCand.preds[j].String()
		})
		joined[bestCand.table] = true
		rows = bestCand.size
		cost += rows
		plan.Steps = append(plan.Steps, Step{
			Table:   bestCand.table,
			Against: bestCand.preds,
			EstRows: rows,
		})
	}
	plan.EstCost = cost
	return plan, nil
}
