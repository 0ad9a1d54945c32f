package sdb

import (
	"context"
	"strings"
	"testing"

	"spatialsel/internal/obs"
)

// TestExecuteContextSpans: under an installed trace, the executor must emit
// one operator span per plan step — the first R-tree join (with its nested
// rtree.join span) and each extension probe — each carrying rows, est_rows,
// and rel_error.
func TestExecuteContextSpans(t *testing.T) {
	plan := planFixture(t, 1500)
	ctx, root := obs.NewTrace(context.Background(), "query")
	res, err := plan.ExecuteContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	r := root.Report()

	if len(r.Children) != 1 || r.Children[0].Name != "execute" {
		t.Fatalf("want one execute child, got %+v", r.Children)
	}
	exec := r.Children[0]
	if len(exec.Children) != len(plan.Steps) {
		t.Fatalf("operator spans = %d, want %d (one per step)", len(exec.Children), len(plan.Steps))
	}
	join := exec.Children[0]
	if !strings.HasPrefix(join.Name, "join ") {
		t.Fatalf("first operator span = %q, want join", join.Name)
	}
	for _, key := range []string{"rows", "est_rows", "rel_error"} {
		if _, ok := join.Attrs[key]; !ok {
			t.Fatalf("join span missing %s: %+v", key, join.Attrs)
		}
	}
	// Catalog-built tables carry packed snapshots on both sides, so the
	// executor runs the packed kernel (serial or parallel by size).
	if len(join.Children) != 1 || !strings.HasPrefix(join.Children[0].Name, "rtree.packed_join") {
		t.Fatalf("join span should nest rtree.packed_join, got %+v", join.Children)
	}
	if join.Children[0].Attrs["node_visits"].(float64) <= 0 {
		t.Fatalf("rtree.packed_join span missing node_visits: %+v", join.Children[0].Attrs)
	}
	probeSpan := exec.Children[1]
	if !strings.HasPrefix(probeSpan.Name, "probe ") {
		t.Fatalf("second operator span = %q, want probe", probeSpan.Name)
	}
	if probeSpan.Attrs["rows"].(float64) != float64(res.Len()) {
		t.Fatalf("final operator rows = %v, result rows = %d", probeSpan.Attrs["rows"], res.Len())
	}
	if probeSpan.Attrs["probe_rows"].(float64) <= 0 {
		t.Fatalf("probe span missing probe_rows: %+v", probeSpan.Attrs)
	}
}

// TestExecuteWithoutTraceRecordsCounters: with no trace installed the
// executor must still feed the engine counters (they are always on).
func TestExecuteWithoutTraceRecordsCounters(t *testing.T) {
	before := obs.Default.Snapshot()
	plan := planFixture(t, 800)
	if _, err := plan.ExecuteContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	for _, name := range []string{"sdb_exec_queries_total", "sdb_exec_rows_total", "rtree_packed_node_visits_total"} {
		if after[name] <= before[name] {
			t.Errorf("%s did not advance: %v -> %v", name, before[name], after[name])
		}
	}
}

func TestRelError(t *testing.T) {
	if got := RelError(110, 100); got != 0.1 {
		t.Fatalf("RelError(110,100) = %g, want 0.1", got)
	}
	if got := RelError(90, 100); got != 0.1 {
		t.Fatalf("RelError(90,100) = %g, want 0.1", got)
	}
	if got := RelError(5, 0); got != 5 {
		t.Fatalf("RelError(5,0) = %g, want 5 (denominator clamps to 1)", got)
	}
}
