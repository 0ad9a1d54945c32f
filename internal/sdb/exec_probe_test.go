package sdb

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
	"spatialsel/internal/rtree"
)

// perRowProbe executes p the way the executor did before its extension steps
// kept a probe memo and wrote rows into slabs: the first join's pairs become
// k-wide rows, and every row of every extension step searches the probed
// table's image with its connecting item, filters the candidates by the
// table's window and then by the step's other predicates, and appends one row
// per surviving candidate. It is the reference ExecuteContext must match row
// for row, in order.
//
// memoSensitive reports whether some step with two or more predicates met one
// connecting item in rows that kept different candidates: there a memo that
// cached more than the window-filtered search would answer wrongly.
func perRowProbe(t testing.TB, p *Plan) (rows [][]int, memoSensitive bool) {
	t.Helper()
	colOf := map[string]int{p.Base: 0}
	for i, s := range p.Steps {
		colOf[s.Table] = i + 1
	}
	k := len(p.Steps) + 1
	first := p.Steps[0]
	batches, err := rtree.PackedJoinBatches(context.Background(), p.tables[p.Base].Packed,
		p.tables[first.Table].Packed, 1, p.window(p.Base), p.window(first.Table))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		for i := 0; i < len(batch); i += 2 {
			row := make([]int, k)
			for c := range row {
				row[c] = -1
			}
			row[0], row[1] = batch[i], batch[i+1]
			rows = append(rows, row)
		}
	}
	for _, s := range p.Steps[1:] {
		tab, win, col := p.tables[s.Table], p.window(s.Table), colOf[s.Table]
		against := make([]joinedSide, len(s.Against))
		for i, pred := range s.Against {
			other := pred.Left
			if other == s.Table {
				other = pred.Right
			}
			against[i] = joinedSide{col: colOf[other], items: p.tables[other].Data.Items}
		}
		kept := map[int]string{}
		var next [][]int
		for _, row := range rows {
			var mine []int
		candidates:
			for _, cand := range tab.Packed.Search(against[0].rect(row), nil) {
				if win != nil && !tab.Data.Items[cand].Intersects(*win) {
					continue
				}
				for _, side := range against[1:] {
					if !tab.Data.Items[cand].Intersects(side.rect(row)) {
						continue candidates
					}
				}
				out := slices.Clone(row)
				out[col] = cand
				next = append(next, out)
				mine = append(mine, cand)
			}
			if len(against) > 1 {
				id, key := row[against[0].col], fmt.Sprint(mine)
				if prev, seen := kept[id]; seen && prev != key {
					memoSensitive = true
				}
				kept[id] = key
			}
		}
		rows = next
	}
	return rows, memoSensitive
}

// overlaid returns full with an image that carries an overlay: the items'
// last fifth is the delta, and every fourth slot of the base is tombstoned.
func overlaid(t testing.TB, full *Table) *Table {
	t.Helper()
	items := rtree.ItemsFromRects(full.Data.Items)
	cut := len(items) * 4 / 5
	base := rtree.PackItems(items[:cut])
	dead := make([]uint64, (cut+63)/64)
	for s := 0; s < cut; s += 4 {
		dead[s>>6] |= 1 << (uint(s) & 63)
	}
	tab := unmemoized(full)
	tab.Packed = base.WithOverlay(dead, rtree.PackItems(items[cut:]))
	if delta, tombs := tab.Packed.Overlay(); delta == 0 || tombs == 0 {
		t.Fatalf("overlay of %d delta items and %d tombstones", delta, tombs)
	}
	return tab
}

// probeFixture is a catalog of four tables, a to d, dense enough that a
// three-table cycle keeps some rows and drops others; with overlay, c's image
// carries tombstones and a delta.
func probeFixture(t testing.TB, n int, seed int64, overlay bool) *Catalog {
	t.Helper()
	c, err := NewCatalogAtLevel(5)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c", "d"} {
		tab, err := c.BuildTable(datagen.Uniform(name, n, 0.03, seed+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if overlay && name == "c" {
			tab = overlaid(t, tab)
		}
		if err := c.Attach(tab); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// probeShapes are the multi-way query shapes the equivalence checks run:
// chains, stars and a cycle, whose last step verifies two predicates.
var probeShapes = []struct {
	name  string
	query Query
}{
	{"chain3", Query{Tables: []string{"a", "b", "c"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}}}},
	{"chain4", Query{Tables: []string{"a", "b", "c", "d"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}, {"c", "d"}}}},
	{"star3", Query{Tables: []string{"a", "b", "c"}, Predicates: []Predicate{{"c", "a"}, {"c", "b"}}}},
	{"star4", Query{Tables: []string{"a", "b", "c", "d"}, Predicates: []Predicate{{"b", "a"}, {"b", "c"}, {"b", "d"}}}},
	{"cycle3", Query{Tables: []string{"a", "b", "c"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}, {"c", "a"}}}},
	{"cycle4", Query{Tables: []string{"a", "b", "c", "d"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}, {"a", "c"}}}},
}

// probeWindows are the windows the windowed runs put on a, c and d.
var probeWindows = map[string]geom.Rect{
	"a": geom.NewRect(0.1, 0.05, 0.85, 0.9),
	"c": geom.NewRect(0.2, 0.1, 0.95, 0.8),
	"d": geom.NewRect(0, 0.3, 0.7, 1),
}

// checkAgainstPerRowProbe executes plan at 1, 2 and 4 workers and fails
// unless each returns the reference's rows in the reference's order.
func checkAgainstPerRowProbe(t testing.TB, label string, plan *Plan, want [][]int) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		plan.Workers = workers
		got, err := plan.ExecuteContext(context.Background())
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if got.Len() != len(want) {
			t.Fatalf("%s workers=%d: %d rows, the per-row probe %d", label, workers, got.Len(), len(want))
		}
		for i, row := range want {
			if !slices.Equal(got.Rows[i], row) {
				t.Fatalf("%s workers=%d: row %d is %v, the per-row probe's is %v", label, workers, i, got.Rows[i], row)
			}
		}
	}
}

// TestExtensionStepMatchesPerRowProbe: the extension steps — slabs between
// steps, one search per distinct connecting item per worker — return what
// probing every row did, row for row and in order, at every pool size, for
// chains, stars and cycles, windowed or not, and with a probed image that
// carries tombstones and a delta. A cycle's step verifies a second predicate
// whose answer differs between rows sharing a connecting item, which a memo
// of anything beyond the window-filtered search would get wrong.
func TestExtensionStepMatchesPerRowProbe(t *testing.T) {
	probedOverlay, memoSensitive := false, false
	for _, overlay := range []bool{false, true} {
		c := probeFixture(t, 1500, 11, overlay)
		for _, shape := range probeShapes {
			for _, windowed := range []bool{false, true} {
				q := shape.query
				if windowed {
					q.Windows = map[string]geom.Rect{}
					for _, name := range q.Tables {
						if w, ok := probeWindows[name]; ok {
							q.Windows[name] = w
						}
					}
				}
				plan := mustPlan(t, c, q, 1)
				label := fmt.Sprintf("%s windowed=%v overlay=%v (base %s)", shape.name, windowed, overlay, plan.Base)
				want, sensitive := perRowProbe(t, plan)
				if len(want) == 0 {
					t.Fatalf("%s: empty result; the check is vacuous", label)
				}
				checkAgainstPerRowProbe(t, label, plan, want)
				memoSensitive = memoSensitive || sensitive
				for _, s := range plan.Steps[1:] {
					probedOverlay = probedOverlay || overlay && s.Table == "c"
				}
			}
		}
	}
	if !probedOverlay {
		t.Error("no plan probed the overlaid table in an extension step")
	}
	if !memoSensitive {
		t.Error("no step met one connecting item in rows that kept different candidates")
	}
}

// TestEmptyResultRowsAreEmpty: an empty result's page is an empty slice, not
// nil, for every table count and pool size, at offset 0 and past the end, so
// a served empty page encodes as "rows":[] however the query ran. (Per-row
// probing left a serially extended empty result nil and a pooled one empty.)
func TestEmptyResultRowsAreEmpty(t *testing.T) {
	c := probeFixture(t, 300, 5, false)
	for _, shape := range probeShapes {
		q := shape.query
		// Windows on the base's and the last table's opposite corners: no
		// item can meet both the first predicate's partner and the last.
		q.Windows = map[string]geom.Rect{
			q.Tables[0]:               geom.NewRect(0, 0, 0.1, 0.1),
			q.Tables[len(q.Tables)-1]: geom.NewRect(0.9, 0.9, 1, 1),
		}
		for _, workers := range []int{1, 2} {
			checkEmptyPages(t, shape.name, mustPlan(t, c, q, workers))
		}
	}
	two := Query{Tables: []string{"a", "b"}, Predicates: []Predicate{{"a", "b"}},
		Windows: map[string]geom.Rect{"a": geom.NewRect(0, 0, 0.1, 0.1), "b": geom.NewRect(0.9, 0.9, 1, 1)}}
	for _, workers := range []int{1, 2} {
		checkEmptyPages(t, "two tables", mustPlan(t, c, two, workers))
	}
}

// checkEmptyPages fails unless plan's result is empty and its pages at offset
// 0 and past the end are empty and non-nil.
func checkEmptyPages(t *testing.T, label string, plan *Plan) {
	t.Helper()
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("%s workers=%d: %d rows, want none", label, plan.Workers, res.Len())
	}
	for _, offset := range []int{0, 5} {
		if rows, err := res.Page(context.Background(), offset, 10); err != nil || rows == nil || len(rows) != 0 {
			t.Fatalf("%s workers=%d: page at %d is %v (nil %v), err %v; want empty and non-nil",
				label, plan.Workers, offset, rows, rows == nil, err)
		}
	}
}

// FuzzMultiwayExecute checks the extension steps against the per-row probe
// on small catalogs of any seed, size and shape, with an optional window on
// one table and an optional overlay on c.
func FuzzMultiwayExecute(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), uint8(0), float64(0.2), float64(0.3), float64(0.5), false)
	f.Add(int64(7), uint16(500), uint8(4), uint8(2), float64(0.1), float64(0), float64(0.9), true)
	f.Add(int64(3), uint16(200), uint8(5), uint8(3), float64(0.5), float64(0.5), float64(0.05), true)
	f.Add(int64(9), uint16(0), uint8(3), uint8(1), float64(0), float64(0), float64(1), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape, winTable uint8, x, y, side float64, overlay bool) {
		c := probeFixture(t, int(n%600)+5, seed, overlay)
		q := probeShapes[int(shape)%len(probeShapes)].query
		if name := string(rune('a' + winTable%5)); winTable%5 < 4 && slices.Contains(q.Tables, name) {
			clamp := func(v float64) float64 { return min(max(v, 0), 1) }
			lo, hi := geom.Point{X: clamp(x), Y: clamp(y)}, geom.Point{X: clamp(x + side), Y: clamp(y + side)}
			if hi.X > lo.X && hi.Y > lo.Y {
				q.Windows = map[string]geom.Rect{name: geom.NewRect(lo.X, lo.Y, hi.X, hi.Y)}
			}
		}
		plan, err := c.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := perRowProbe(t, plan)
		checkAgainstPerRowProbe(t, fmt.Sprintf("seed %d", seed), plan, want)
	})
}
