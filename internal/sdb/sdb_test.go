package sdb

import (
	"os"
	"sort"
	"strings"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// testCatalog builds a catalog with three related tables at a modest level.
func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := NewCatalogAtLevel(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{
		datagen.Cluster("hot", 3000, 0.3, 0.3, 0.08, 0.01, 301),
		datagen.Cluster("warm", 2500, 0.35, 0.35, 0.1, 0.01, 302),
		datagen.Uniform("cold", 3000, 0.01, 303),
	} {
		if _, err := c.Create(d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog(t)
	if got := c.Names(); len(got) != 3 || got[0] != "cold" {
		t.Fatalf("Names = %v", got)
	}
	tab, err := c.Table("hot")
	if err != nil || tab.Len() != 3000 || tab.Index.Len() != 3000 {
		t.Fatalf("Table(hot) = %v, %v", tab, err)
	}
	if c.StatisticsLevelUsed() != 6 {
		t.Fatalf("level = %d", c.StatisticsLevelUsed())
	}
	if _, err := c.Table("missing"); err == nil {
		t.Fatal("missing table found")
	}
	// Duplicate creation fails.
	if _, err := c.Create(datagen.Uniform("hot", 10, 0.01, 1)); err == nil {
		t.Fatal("duplicate table accepted")
	}
	// Drop works once.
	if !c.Drop("cold") || c.Drop("cold") {
		t.Fatal("Drop semantics wrong")
	}
	// Invalid datasets rejected.
	if _, err := c.Create(dataset.New("", geom.UnitSquare, nil)); err == nil {
		t.Fatal("unnamed dataset accepted")
	}
	bad := dataset.New("bad", geom.NewRect(0, 0, 0, 1), nil)
	if _, err := c.Create(bad); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}

// TestAttachRequiresPackedImage pins Table.Packed as an invariant: the
// executor joins packed images only, so a hand-built table with an index and
// no image is refused at the catalog's door, while Create always supplies one.
func TestAttachRequiresPackedImage(t *testing.T) {
	c, err := NewCatalogAtLevel(5)
	if err != nil {
		t.Fatal(err)
	}
	built, err := c.Create(datagen.Uniform("built", 500, 0.01, 1))
	if err != nil {
		t.Fatal(err)
	}
	if built.Packed == nil || built.Packed.Len() != built.Index.Len() {
		t.Fatalf("Create: packed image %v does not mirror the %d-item index", built.Packed, built.Index.Len())
	}
	bare := &Table{Name: "bare", Data: built.Data, Index: built.Index, Stats: built.Stats}
	err = c.Attach(bare)
	if err == nil || !strings.Contains(err.Error(), "packed image") || !strings.Contains(err.Error(), `"bare"`) {
		t.Fatalf("Attach of an indexed table without a packed image: err = %v", err)
	}
	if _, err := c.Table("bare"); err == nil {
		t.Fatal("rejected table was registered anyway")
	}
	bare.Packed = built.Packed
	if err := c.Attach(bare); err != nil {
		t.Fatalf("Attach with the image: %v", err)
	}
}

func TestNewCatalogAtLevelValidation(t *testing.T) {
	if _, err := NewCatalogAtLevel(-1); err == nil {
		t.Fatal("negative level accepted")
	}
	if NewCatalog().StatisticsLevelUsed() != StatisticsLevel {
		t.Fatal("default level wrong")
	}
}

func TestEstimateHelpers(t *testing.T) {
	c := testCatalog(t)
	size, err := c.EstimateJoinSize("hot", "warm")
	if err != nil || size <= 0 {
		t.Fatalf("EstimateJoinSize = %g, %v", size, err)
	}
	if _, err := c.EstimateJoinSize("hot", "missing"); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := c.EstimateJoinSize("missing", "hot"); err == nil {
		t.Fatal("missing table accepted")
	}
	cnt, err := c.EstimateRangeCount("hot", geom.NewRect(0.2, 0.2, 0.4, 0.4))
	if err != nil || cnt <= 0 {
		t.Fatalf("EstimateRangeCount = %g, %v", cnt, err)
	}
	if _, err := c.EstimateRangeCount("missing", geom.UnitSquare); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	c := testCatalog(t)
	cases := []struct {
		name string
		q    Query
	}{
		{"one table", Query{Tables: []string{"hot"}}},
		{"dup table", Query{Tables: []string{"hot", "hot"}, Predicates: []Predicate{{"hot", "hot"}}}},
		{"unknown table", Query{Tables: []string{"hot", "nope"}, Predicates: []Predicate{{"hot", "nope"}}}},
		{"no predicates", Query{Tables: []string{"hot", "warm"}}},
		{"foreign predicate", Query{Tables: []string{"hot", "warm"}, Predicates: []Predicate{{"hot", "cold"}}}},
		{"self predicate", Query{Tables: []string{"hot", "warm"}, Predicates: []Predicate{{"hot", "hot"}}}},
		{"disconnected", Query{
			Tables:     []string{"hot", "warm", "cold"},
			Predicates: []Predicate{{"hot", "warm"}},
		}},
		{"foreign window", Query{
			Tables:     []string{"hot", "warm"},
			Predicates: []Predicate{{"hot", "warm"}},
			Windows:    map[string]geom.Rect{"cold": geom.UnitSquare},
		}},
		{"invalid window", Query{
			Tables:     []string{"hot", "warm"},
			Predicates: []Predicate{{"hot", "warm"}},
			Windows:    map[string]geom.Rect{"hot": {MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}},
		}},
	}
	for _, tc := range cases {
		if _, err := c.Plan(tc.q); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// bruteTwoWay joins two tables by brute force, with windows.
func bruteTwoWay(c *Catalog, q Query) [][]int {
	ta, _ := c.Table(q.Tables[0])
	tb, _ := c.Table(q.Tables[1])
	wa, hasWA := q.Windows[q.Tables[0]]
	wb, hasWB := q.Windows[q.Tables[1]]
	var out [][]int
	for i, a := range ta.Data.Items {
		if hasWA && !a.Intersects(wa) {
			continue
		}
		for j, b := range tb.Data.Items {
			if hasWB && !b.Intersects(wb) {
				continue
			}
			if a.Intersects(b) {
				out = append(out, []int{i, j})
			}
		}
	}
	return out
}

func rowsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	sortRows := func(rs [][]int) {
		sort.Slice(rs, func(i, j int) bool {
			for k := range rs[i] {
				if rs[i][k] != rs[j][k] {
					return rs[i][k] < rs[j][k]
				}
			}
			return false
		})
	}
	sortRows(a)
	sortRows(b)
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func TestTwoWayJoinMatchesBrute(t *testing.T) {
	c := testCatalog(t)
	q := Query{Tables: []string{"hot", "warm"}, Predicates: []Predicate{{"hot", "warm"}}}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTwoWay(c, q)
	// Columns may be (hot, warm) or (warm, hot) depending on the greedy
	// start; normalize to query order.
	got := normalizeRows(res, []string{"hot", "warm"})
	if !rowsEqual(got, want) {
		t.Fatalf("2-way join: got %d rows, want %d", len(got), len(want))
	}
}

func normalizeRows(res *Result, order []string) [][]int {
	idx := make([]int, len(order))
	for i, name := range order {
		for j, col := range res.Columns {
			if col == name {
				idx[i] = j
			}
		}
	}
	out := make([][]int, len(res.Rows))
	for i, row := range res.Rows {
		n := make([]int, len(order))
		for j, k := range idx {
			n[j] = row[k]
		}
		out[i] = n
	}
	return out
}

func TestTwoWayJoinWithWindows(t *testing.T) {
	c := testCatalog(t)
	q := Query{
		Tables:     []string{"hot", "warm"},
		Predicates: []Predicate{{"hot", "warm"}},
		Windows: map[string]geom.Rect{
			"hot":  geom.NewRect(0.2, 0.2, 0.45, 0.45),
			"warm": geom.NewRect(0.25, 0.25, 0.5, 0.5),
		},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeRows(res, []string{"hot", "warm"})
	want := bruteTwoWay(c, q)
	if !rowsEqual(got, want) {
		t.Fatalf("windowed join: got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test setup: windowed join empty")
	}
}

// bruteThreeWay joins three tables on a path hot–warm–cold.
func bruteThreeWay(c *Catalog, t1, t2, t3 string) [][]int {
	a, _ := c.Table(t1)
	b, _ := c.Table(t2)
	d, _ := c.Table(t3)
	var out [][]int
	for i, ra := range a.Data.Items {
		for j, rb := range b.Data.Items {
			if !ra.Intersects(rb) {
				continue
			}
			for k, rd := range d.Data.Items {
				if rb.Intersects(rd) {
					out = append(out, []int{i, j, k})
				}
			}
		}
	}
	return out
}

func TestThreeWayJoinMatchesBrute(t *testing.T) {
	c := testCatalog(t)
	q := Query{
		Tables:     []string{"hot", "warm", "cold"},
		Predicates: []Predicate{{"hot", "warm"}, {"warm", "cold"}},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeRows(res, []string{"hot", "warm", "cold"})
	want := bruteThreeWay(c, "hot", "warm", "cold")
	if !rowsEqual(got, want) {
		t.Fatalf("3-way join: got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test setup: 3-way join empty")
	}
}

func TestThreeWayCycleJoin(t *testing.T) {
	// A cyclic predicate graph: the third table must satisfy predicates
	// against both already-joined tables (exercises the verify path).
	c := testCatalog(t)
	q := Query{
		Tables:     []string{"hot", "warm", "cold"},
		Predicates: []Predicate{{"hot", "warm"}, {"warm", "cold"}, {"hot", "cold"}},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// Brute force with all three predicates.
	a, _ := c.Table("hot")
	b, _ := c.Table("warm")
	d, _ := c.Table("cold")
	var want [][]int
	for i, ra := range a.Data.Items {
		for j, rb := range b.Data.Items {
			if !ra.Intersects(rb) {
				continue
			}
			for k, rd := range d.Data.Items {
				if rb.Intersects(rd) && ra.Intersects(rd) {
					want = append(want, []int{i, j, k})
				}
			}
		}
	}
	got := normalizeRows(res, []string{"hot", "warm", "cold"})
	if !rowsEqual(got, want) {
		t.Fatalf("cycle join: got %d rows, want %d", len(got), len(want))
	}
}

func TestThreeWayJoinWindowOnProbedTable(t *testing.T) {
	// A window on a table joined via index probes (not the first join) must
	// filter candidates during extension.
	c := testCatalog(t)
	win := geom.NewRect(0.2, 0.2, 0.5, 0.5)
	q := Query{
		Tables:     []string{"hot", "warm", "cold"},
		Predicates: []Predicate{{"hot", "warm"}, {"warm", "cold"}},
		Windows:    map[string]geom.Rect{"cold": win},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Table("hot")
	b, _ := c.Table("warm")
	d, _ := c.Table("cold")
	var want [][]int
	for i, ra := range a.Data.Items {
		for j, rb := range b.Data.Items {
			if !ra.Intersects(rb) {
				continue
			}
			for k, rd := range d.Data.Items {
				if rd.Intersects(win) && rb.Intersects(rd) {
					want = append(want, []int{i, j, k})
				}
			}
		}
	}
	got := normalizeRows(res, []string{"hot", "warm", "cold"})
	if !rowsEqual(got, want) {
		t.Fatalf("windowed 3-way: got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test setup: empty result")
	}
}

func TestCatalogSaveFailure(t *testing.T) {
	c := testCatalog(t)
	// Saving into a path that exists as a file must fail.
	dir := t.TempDir()
	blocker := dir + "/blocked"
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(blocker + "/sub"); err == nil {
		t.Fatal("Save into file path succeeded")
	}
}

func TestPlanPrefersCheapFirstJoin(t *testing.T) {
	// hot⋈warm (co-located clusters) is far larger than cold joins; the
	// planner must not start with it when an alternative path exists.
	c := testCatalog(t)
	q := Query{
		Tables:     []string{"hot", "warm", "cold"},
		Predicates: []Predicate{{"hot", "warm"}, {"hot", "cold"}, {"warm", "cold"}},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	firstJoin := plan.Steps[0].Against[0]
	if firstJoin == (Predicate{"hot", "warm"}) {
		t.Fatalf("planner started with the most expensive join:\n%s", plan.Explain())
	}
	if plan.EstCost <= 0 {
		t.Fatal("no cost estimate")
	}
}

func TestExplainOutput(t *testing.T) {
	c := testCatalog(t)
	q := Query{
		Tables:     []string{"hot", "warm", "cold"},
		Predicates: []Predicate{{"hot", "warm"}, {"warm", "cold"}},
		Windows:    map[string]geom.Rect{"cold": geom.NewRect(0, 0, 0.5, 0.5)},
	}
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"plan (est. cost", "scan", "join", "est."} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
}

func TestCountHelper(t *testing.T) {
	c := testCatalog(t)
	q := Query{Tables: []string{"hot", "warm"}, Predicates: []Predicate{{"hot", "warm"}}}
	got, err := c.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bruteTwoWay(c, q)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if _, err := c.Count(Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestCatalogSaveLoad(t *testing.T) {
	c := testCatalog(t)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(dir, 6)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got, want := loaded.Names(), c.Names(); len(got) != len(want) {
		t.Fatalf("loaded names %v, want %v", got, want)
	}
	// Estimates agree between original and reloaded catalogs.
	a, err := c.EstimateJoinSize("hot", "warm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.EstimateJoinSize("hot", "warm")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("estimates diverge after reload: %g vs %g", a, b)
	}
	// Queries still run.
	q := Query{Tables: []string{"hot", "cold"}, Predicates: []Predicate{{"hot", "cold"}}}
	n1, _ := c.Count(q)
	n2, err := loaded.Count(q)
	if err != nil || n1 != n2 {
		t.Fatalf("counts diverge after reload: %d vs %d (%v)", n1, n2, err)
	}
	if _, err := Load(t.TempDir()+"/missing", 6); err == nil {
		t.Fatal("Load of missing dir succeeded")
	}
	if _, err := Load(dir, -3); err == nil {
		t.Fatal("Load with bad level succeeded")
	}
}
