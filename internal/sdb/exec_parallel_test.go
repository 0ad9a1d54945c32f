package sdb

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
)

// rowKeys flattens result rows into sortable strings so executions over
// different snapshots can be compared as sets.
func rowKeys(res *Result) []string {
	keys := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		keys = append(keys, fmt.Sprint(row))
	}
	sort.Strings(keys)
	return keys
}

// TestExecuteContextParallelMatchesSerial runs two-, three- and four-table
// plans, windowed and not, serially and with several pool sizes: every
// execution must return the identical rows in the identical order — the
// kernel's tasks and the probe steps' chunks do not depend on the pool — so
// offset/limit over one snapshot page the same result whether or not
// admission degraded the execution to one worker.
func TestExecuteContextParallelMatchesSerial(t *testing.T) {
	c := uniformCatalog(t, 20000, "a", "b", "c", "d")
	fourWay := Query{Tables: []string{"a", "b", "c", "d"}, Predicates: []Predicate{{"a", "b"}, {"b", "c"}, {"c", "d"}}}
	windowed := threeWay
	windowed.Windows = map[string]geom.Rect{"a": geom.NewRect(0.1, 0.1, 0.8, 0.7), "c": geom.NewRect(0.2, 0, 1, 0.9)}
	for _, q := range []Query{twoWay, threeWay, fourWay, windowed} {
		plan := mustPlan(t, c, q, 1)
		serial, err := plan.ExecuteContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if serial.Len() == 0 {
			t.Fatal("fixture produced no rows; test is vacuous")
		}
		for _, workers := range []int{0, 2, 4} {
			plan.Workers = workers
			got, err := plan.ExecuteContext(context.Background())
			if err != nil {
				t.Fatalf("%d tables, workers=%d: %v", len(q.Tables), workers, err)
			}
			if got.Len() != serial.Len() {
				t.Fatalf("%d tables, workers=%d: %d rows, serial %d", len(q.Tables), workers, got.Len(), serial.Len())
			}
			for i, row := range serial.Rows {
				if !slices.Equal(got.Rows[i], row) {
					t.Fatalf("%d tables, workers=%d: row %d is %v, serial has %v", len(q.Tables), workers, i, got.Rows[i], row)
				}
			}
		}
	}
}

// TestExecuteContextParallelDeterministic: same plan, same worker count,
// repeated runs must materialize rows in the identical order (the parallel
// merge is by task/chunk order, not completion order).
func TestExecuteContextParallelDeterministic(t *testing.T) {
	plan := planFixture(t, 2500)
	plan.Workers = 4
	first, err := plan.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := plan.ExecuteContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != first.Len() {
			t.Fatalf("run %d: %d rows, want %d", run, again.Len(), first.Len())
		}
		for i := range first.Rows {
			for j := range first.Rows[i] {
				if first.Rows[i][j] != again.Rows[i][j] {
					t.Fatalf("run %d: row %d differs: %v vs %v", run, i, again.Rows[i], first.Rows[i])
				}
			}
		}
	}
}

// TestExecuteContextParallelCancelled: a cancelled context aborts the
// parallel executor with context.Canceled just like the serial one.
func TestExecuteContextParallelCancelled(t *testing.T) {
	plan := planFixture(t, 4000)
	plan.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteContext(ctx); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestExecuteRunsOnPlannedTables pins the plan's snapshot semantics: a plan
// is bound to the tables it was planned on, so dropping them — and creating
// different data under the same names — between Plan and Execute changes
// neither the rows nor the outcome, serially or on a pool.
func TestExecuteRunsOnPlannedTables(t *testing.T) {
	c, err := NewCatalogAtLevel(5)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	for i, name := range names {
		if _, err := c.Create(datagen.Uniform(name, 3000, 0.01, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Windows on the base and on the probed table exercise both row filters.
	plan, err := c.Plan(Query{
		Tables:     names,
		Predicates: []Predicate{{Left: "a", Right: "b"}, {Left: "b", Right: "c"}},
		Windows: map[string]geom.Rect{
			"a": geom.NewRect(0, 0, 0.8, 0.8),
			"c": geom.NewRect(0.1, 0.1, 1, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := rowKeys(before)
	if len(want) == 0 {
		t.Fatal("fixture produced no rows; test is vacuous")
	}

	for i, name := range names {
		if !c.Drop(name) {
			t.Fatalf("drop %s failed", name)
		}
		if _, err := c.Create(datagen.Cluster(name, 500, 0.5, 0.5, 0.1, 0.01, int64(i+10))); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		plan.Workers = workers
		after, err := plan.ExecuteContext(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := rowKeys(after)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows after drop and re-create, %d before", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row set diverges at %d: %s vs %s", workers, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkProbeStepCrossover is the measurement behind parallelProbeMinRows:
// multiway-window's chain SCRC – SURA – SPG, the first two tables scaled so
// that their join hands the extension step from about 512 to about 32 768
// rows (reported as probe_rows) and SPG at the workload's scale 0.2, serial
// against a pool of two. The probe step alone is read off its operator span
// (probe-ns/op): Workers sizes the first join's pool too, and that has its own
// crossover. Run with -cpu 2; EXPERIMENTS.md "Tile probes" has the table.
func BenchmarkProbeStepCrossover(b *testing.B) {
	for _, n := range []int{5700, 8100, 11500, 16200, 23000, 32500, 46000} {
		c := NewCatalog()
		for _, d := range []*dataset.Dataset{
			datagen.SCRC(float64(n) / datagen.CardSCRC), datagen.SURA(float64(n) / datagen.CardSURA), datagen.SPG(0.2),
		} {
			if _, err := c.Create(d); err != nil {
				b.Fatal(err)
			}
		}
		plan, err := c.Plan(Query{Tables: []string{"SCRC", "SURA", "SPG"}, Predicates: []Predicate{{"SCRC", "SURA"}, {"SURA", "SPG"}}})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Steps) != 2 || plan.Steps[1].Table != "SPG" {
			b.Fatalf("plan from %s over %+v does not probe SPG last", plan.Base, plan.Steps)
		}
		for _, workers := range []int{1, 2} {
			plan.Workers = workers
			b.Run(fmt.Sprintf("items=%d/workers=%d", n, workers), func(b *testing.B) {
				var probeMicros, probeRows float64
				for i := 0; i < b.N; i++ {
					ctx, root := obs.NewTrace(context.Background(), "bench")
					if _, err := plan.ExecuteContext(ctx); err != nil {
						b.Fatal(err)
					}
					probe := root.Report().Children[0].Children[1]
					probeMicros += float64(probe.ElapsedMicros)
					probeRows = probe.Attrs["probe_rows"].(float64)
				}
				b.ReportMetric(probeMicros*1e3/float64(b.N), "probe-ns/op")
				b.ReportMetric(probeRows, "probe_rows")
			})
		}
	}
}
