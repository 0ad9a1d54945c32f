package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSpanIsFree: every Span method must be a no-op on nil, and StartSpan
// without an installed trace must return the context unchanged — this is the
// always-on hot path.
func TestNilSpanIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "work")
	if sp != nil {
		t.Fatal("StartSpan without a trace must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without a trace must not derive a new context")
	}
	// All nil-safe.
	sp.Set("k", 1)
	sp.Add("k", 1)
	sp.SetStr("s", "v")
	sp.End()
	if sp.Child("c") != nil {
		t.Fatal("nil.Child must be nil")
	}
	if sp.Report() != nil {
		t.Fatal("nil.Report must be nil")
	}
}

func TestSpanTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "query")
	if SpanFrom(ctx) != root {
		t.Fatal("NewTrace must install the root span")
	}
	jctx, join := StartSpan(ctx, "join")
	join.Set("est_rows", 100)
	join.Set("rows", 90)
	join.Add("rows", 10) // overwriteable + accumulable
	_, inner := StartSpan(jctx, "rtree.join")
	inner.Set("node_visits", 42)
	inner.SetStr("trees", "a⋈b")
	inner.End()
	join.End()
	_, probe := StartSpan(ctx, "probe")
	probe.End()
	root.End()
	root.End() // second End ignored

	r := root.Report()
	if r.Name != "query" || len(r.Children) != 2 {
		t.Fatalf("bad root report: %+v", r)
	}
	j := r.Children[0]
	if j.Name != "join" || j.Attrs["est_rows"] != 100.0 || j.Attrs["rows"] != 100.0 {
		t.Fatalf("bad join report: %+v", j)
	}
	if len(j.Children) != 1 || j.Children[0].Attrs["node_visits"] != 42.0 || j.Children[0].Attrs["trees"] != "a⋈b" {
		t.Fatalf("bad inner report: %+v", j.Children[0])
	}

	// JSON round-trips.
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Children[0].Name != "join" {
		t.Fatalf("json round-trip lost structure: %s", raw)
	}

	// Text rendering: indented, attrs sorted by key.
	text := r.Text()
	if !strings.Contains(text, "query (") ||
		!strings.Contains(text, "\n  join (") ||
		!strings.Contains(text, "\n    rtree.join (") {
		t.Fatalf("bad text tree:\n%s", text)
	}
	if strings.Index(text, "est_rows=") > strings.Index(text, "rows=") &&
		!strings.Contains(text, "est_rows=100 rows=100") {
		t.Fatalf("attrs not sorted:\n%s", text)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	_, root := NewTrace(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("child")
			c.Add("n", 1)
			c.End()
			root.Add("total", 1)
		}()
	}
	wg.Wait()
	root.End()
	r := root.Report()
	if len(r.Children) != 16 {
		t.Fatalf("children = %d, want 16", len(r.Children))
	}
	if r.Attrs["total"] != 16.0 {
		t.Fatalf("total = %v, want 16", r.Attrs["total"])
	}
}

func TestTraceID(t *testing.T) {
	id := NewTraceID()
	if len(id) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", id)
	}
	if id == NewTraceID() {
		t.Fatal("trace ids should differ")
	}
}
