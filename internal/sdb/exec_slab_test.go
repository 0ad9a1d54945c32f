package sdb

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
)

// uniformCatalog holds tables a, b, c, … of n uniform items each.
func uniformCatalog(t *testing.T, n int, names ...string) *Catalog {
	t.Helper()
	c, err := NewCatalogAtLevel(5)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if _, err := c.Create(datagen.Uniform(name, n, 0.01, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func mustPlan(t *testing.T, c *Catalog, q Query, workers int) *Plan {
	t.Helper()
	plan, err := c.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Workers = workers
	return plan
}

var (
	twoWay   = Query{Tables: []string{"a", "b"}, Predicates: []Predicate{{"a", "b"}}}
	threeWay = Query{Tables: []string{"a", "b", "c"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}}}
)

// TestResultRowsAreIndependent: a page's rows share a slab, but each is a
// full-capacity slice of its own cells — writing a row touches no other, and
// appending to one reallocates instead of running into its neighbour.
func TestResultRowsAreIndependent(t *testing.T) {
	c := uniformCatalog(t, 3000, "a", "b", "c")
	for _, q := range []Query{twoWay, threeWay} {
		for _, workers := range []int{1, 2} {
			res, err := mustPlan(t, c, q, workers).Execute()
			if err != nil {
				t.Fatal(err)
			}
			rows := pageAll(t, res)
			if len(rows) < 2 {
				t.Fatal("fixture produced fewer than two rows; test is vacuous")
			}
			want := make([][]int, len(rows))
			for i, row := range rows {
				if len(row) != len(q.Tables) || cap(row) != len(row) {
					t.Fatalf("%d tables, workers=%d: row %d has len %d cap %d, want both %d",
						len(q.Tables), workers, i, len(row), cap(row), len(q.Tables))
				}
				want[i] = append([]int(nil), row...)
			}
			for i := range rows {
				for j := range rows[i] {
					rows[i][j] = -7
				}
				_ = append(rows[i], -8, -9)
				for o, row := range rows {
					if o == i {
						continue
					}
					for j := range row {
						if row[j] != want[o][j] {
							t.Fatalf("%d tables, workers=%d: writing row %d changed row %d to %v, want %v",
								len(q.Tables), workers, i, o, row, want[o])
						}
					}
				}
				copy(rows[i], want[i])
			}
		}
	}
}

// TestExecuteAllocationsDoNotScaleWithRows: the executor allocates per batch,
// per task and per arena chunk — never per row. The same ceiling (plus, past
// the first join, one allocation per arenaChunkRows rows) holds at two input
// sizes an order of magnitude (two in rows) apart; one allocation per row
// would pass it 100× over at the larger size.
func TestExecuteAllocationsDoNotScaleWithRows(t *testing.T) {
	const ceiling = 500
	for _, n := range []int{4000, 40000} {
		c := uniformCatalog(t, n, "a", "b", "c")
		for _, q := range []Query{twoWay, threeWay} {
			for _, workers := range []int{1, 2} {
				plan := mustPlan(t, c, q, workers)
				rows := 0
				allocs := testing.AllocsPerRun(3, func() {
					res, err := plan.Execute()
					if err != nil {
						t.Fatal(err)
					}
					rows = res.Len()
				})
				t.Logf("n=%d tables=%d workers=%d: %d rows, %.0f allocations", n, len(q.Tables), workers, rows, allocs)
				if n == 40000 && rows < 100*ceiling {
					t.Fatalf("n=%d tables=%d: %d rows cannot tell per-row allocation from the ceiling", n, len(q.Tables), rows)
				}
				limit := ceiling
				if len(q.Tables) > 2 {
					limit += rows / arenaChunkRows
				}
				if allocs > float64(limit) {
					t.Fatalf("n=%d tables=%d workers=%d: %.0f allocations for %d rows, ceiling %d",
						n, len(q.Tables), workers, allocs, rows, limit)
				}
			}
		}
	}
}

// TestTwoTablePageBytesDoNotScaleWithRows: a two-table result is counted,
// and a page sweeps out its own rows only, so executing the plan and reading
// its first 1 000 rows allocates the same bytes — the task list, one drained
// batch and the page — at two fixture sizes 4× apart (16× in rows), within a
// tenth. Making every row, as the executor did before it counted, allocated
// about 40 B per row: 1.2 M rows cost 48 MB.
func TestTwoTablePageBytesDoNotScaleWithRows(t *testing.T) {
	const pageRows = 1000
	for _, workers := range []int{1, 2} {
		var bytes [2]float64
		for i, n := range []int{40000, 160000} {
			plan := mustPlan(t, uniformCatalog(t, n, "a", "b"), twoWay, workers)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := plan.ExecuteContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rows, err := res.Page(context.Background(), 0, pageRows)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != pageRows || res.Len() < 100*pageRows {
				t.Fatalf("n=%d: %d rows of %d on the page; the fixture must fill it many times over", n, len(rows), res.Len())
			}
			bytes[i] = float64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("workers=%d n=%d: %d rows, %.0f B allocated for the count and a page of %d", workers, n, res.Len(), bytes[i], pageRows)
		}
		if r := bytes[1] / bytes[0]; r > 1.1 || r < 1/1.1 {
			t.Fatalf("workers=%d: %.0f B at 4× the items against %.0f B; want the same within 10%%", workers, bytes[1], bytes[0])
		}
	}
}

// TestThreeTableResultBytesPerRow: a three-table result's rows are written
// once, 24 B each, into arena chunks that stay the result's slab, and their
// 24 B headers are made once, exactly sized; the first join's pairs are read
// where the kernel wrote them, and the probe memo is sized from the step's
// input. Measured on this fixture, 1.2 M rows from 0.22 M first-join pairs:
// 60.0 B allocated per row at one worker and 63.9–65.1 at two (a memo and a
// candidate buffer per worker). The executor that extended every row into
// per-goroutine arenas, appended a header per step and concatenated the
// pool's headers once more allocated 169.6 B at one worker and 198.5–198.6 at
// two. The ceiling is a tenth above the larger of the new figures.
func TestThreeTableResultBytesPerRow(t *testing.T) {
	const ceiling = 72.0
	c := uniformCatalog(t, 47000, "a", "b", "c")
	for _, workers := range []int{1, 2} {
		plan := mustPlan(t, c, threeWay, workers)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := plan.Execute()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() < 1_000_000 {
			t.Fatalf("fixture produced %d rows, want a million", res.Len())
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Len())
		t.Logf("workers=%d: %d rows, %.1f B allocated per row", workers, res.Len(), perRow)
		if perRow > ceiling {
			t.Fatalf("workers=%d: %.1f B allocated per row, ceiling %.0f", workers, perRow, ceiling)
		}
	}
}

// pollCountCtx is a background context that counts Err polls and, when
// cancelAt is positive, reports Canceled from the cancelAt-th poll on: a
// deterministic way to cancel in the middle of an execution.
type pollCountCtx struct {
	context.Context
	polls    atomic.Int64
	cancelAt int64
}

func (c *pollCountCtx) Err() error {
	if n := c.polls.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestExecuteCancelledMidway cancels a three-way execution in the middle of
// the first join and in the middle of its extension step, serially and on a
// pool: each returns no result and the context's error. The executor's row
// counter tells the two apart — it advances only once the first join is done.
func TestExecuteCancelledMidway(t *testing.T) {
	c := uniformCatalog(t, 12000, "a", "b", "c")
	for _, workers := range []int{1, 2} {
		plan := mustPlan(t, c, threeWay, workers)
		// Polls of a complete run; a pool's count varies by less than its size.
		total := int64(1) << 62
		for i := 0; i < 3; i++ {
			counter := &pollCountCtx{Context: context.Background()}
			if _, err := plan.ExecuteContext(counter); err != nil {
				t.Fatal(err)
			}
			if n := counter.polls.Load(); n < total {
				total = n
			}
		}
		for _, tc := range []struct {
			where    string
			cancelAt int64
			joinDone bool
		}{
			{"first join", 3, false},
			{"extension step", total - int64(workers) - 1, true},
		} {
			before := mExecRows.Value()
			res, err := plan.ExecuteContext(&pollCountCtx{Context: context.Background(), cancelAt: tc.cancelAt})
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d, cancelled in the %s: result %v, err %v; want nil, context.Canceled", workers, tc.where, res, err)
			}
			if joinDone := mExecRows.Value() > before; joinDone != tc.joinDone {
				t.Fatalf("workers=%d: poll %d of %d was meant to land in the %s, but first join done = %v",
					workers, tc.cancelAt, total, tc.where, joinDone)
			}
		}
	}
}

// TestJoinWindowOnEveryTable: with a window on every table — the two the
// kernel prunes by and the one filtered at the probe — the executor returns
// what filtering after the joins would.
func TestJoinWindowOnEveryTable(t *testing.T) {
	c := testCatalog(t)
	wins := map[string]geom.Rect{
		"hot":  geom.NewRect(0.2, 0.2, 0.45, 0.45),
		"warm": geom.NewRect(0.25, 0.25, 0.5, 0.5),
		"cold": geom.NewRect(0.1, 0.3, 0.6, 0.9),
	}
	for _, workers := range []int{1, 2} {
		plan := mustPlan(t, c, Query{
			Tables:     []string{"hot", "warm", "cold"},
			Predicates: []Predicate{{"hot", "warm"}, {"warm", "cold"}},
			Windows:    wins,
		}, workers)
		res, err := plan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		var want [][]int
		for _, row := range bruteThreeWay(c, "hot", "warm", "cold") {
			keep := true
			for i, name := range []string{"hot", "warm", "cold"} {
				tab, _ := c.Table(name)
				keep = keep && tab.Data.Items[row[i]].Intersects(wins[name])
			}
			if keep {
				want = append(want, row)
			}
		}
		if len(want) == 0 {
			t.Fatal("test setup: empty result")
		}
		if got := normalizeRows(t, res, []string{"hot", "warm", "cold"}); !rowsEqual(got, want) {
			t.Fatalf("workers=%d: got %d rows, filter-after-join keeps %d", workers, len(got), len(want))
		}
	}
}
