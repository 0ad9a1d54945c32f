package sdb

import (
	"context"
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
	if c.level != 6 {
		t.Fatalf("level = %d", c.level)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Fatal("missing table found")
	}
	// Duplicate creation fails.
	if _, err := c.Create(datagen.Uniform("hot", 10, 0.01, 1)); err == nil {
		t.Fatal("duplicate table accepted")
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

// BenchmarkBuildTable is one registration of the paper's SURA at scale 1
// (100 k items) at the statistics level, 7: normalize, pack, build GH, and
// hand back a table whose pointer tree is not cut until something reads it.
// The dataset is made once, outside the timer.
//
//	go test ./internal/sdb -run '^$' -bench BenchmarkBuildTable -benchtime 20x
func BenchmarkBuildTable(b *testing.B) {
	c := NewCatalog()
	d := datagen.SURA(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BuildTable(d); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewCatalogAtLevelValidation(t *testing.T) {
	if _, err := NewCatalogAtLevel(-1); err == nil {
		t.Fatal("negative level accepted")
	}
	if NewCatalog().level != StatisticsLevel {
		t.Fatal("default level wrong")
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
	if len(want) == 0 {
		t.Fatal("test setup: join empty")
	}
	// Columns may be (hot, warm) or (warm, hot) depending on the greedy
	// start; normalize to query order.
	got := normalizeRows(t, res, []string{"hot", "warm"})
	if !rowsEqual(got, want) {
		t.Fatalf("2-way join: got %d rows, want %d", len(got), len(want))
	}
}

// normalizeRows reads every row of res through Page and reorders its columns
// to order.
func normalizeRows(t *testing.T, res *Result, order []string) [][]int {
	t.Helper()
	rows, err := res.Page(context.Background(), 0, res.Len())
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(order))
	for i, name := range order {
		for j, col := range res.Columns {
			if col == name {
				idx[i] = j
			}
		}
	}
	out := make([][]int, len(rows))
	for i, row := range rows {
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
	want := bruteTwoWay(c, q)
	if len(want) == 0 {
		t.Fatal("test setup: windowed join empty")
	}
	got := normalizeRows(t, res, []string{"hot", "warm"})
	if !rowsEqual(got, want) {
		t.Fatalf("windowed join: got %d rows, want %d", len(got), len(want))
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
	got := normalizeRows(t, res, []string{"hot", "warm", "cold"})
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
	got := normalizeRows(t, res, []string{"hot", "warm", "cold"})
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
	got := normalizeRows(t, res, []string{"hot", "warm", "cold"})
	if !rowsEqual(got, want) {
		t.Fatalf("windowed 3-way: got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test setup: empty result")
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
