package telemetry

import (
	"testing"
	"time"

	"spatialsel/internal/obs"
)

func TestFlightRetentionPolicy(t *testing.T) {
	f := NewFlightRecorder(100*time.Millisecond, 64, 4, nil)

	// Panic and error are always kept.
	if !f.Record(Event{Status: 200, Panic: true}, nil) {
		t.Error("panic event not retained")
	}
	if !f.Record(Event{Status: 500}, nil) {
		t.Error("error event not retained")
	}
	// Slow (≥ threshold) is always kept.
	if !f.Record(Event{Status: 200, DurationMicros: 100_000}, nil) {
		t.Error("slow event not retained")
	}
	// Fast successes are sampled 1 in 4.
	kept := 0
	for i := 0; i < 16; i++ {
		if f.Record(Event{Status: 200, DurationMicros: 10}, nil) {
			kept++
		}
	}
	if kept != 4 {
		t.Errorf("sampled %d of 16 fast requests, want 4 (1 in 4)", kept)
	}

	byReason := map[string]int{}
	for _, ev := range f.Query(FlightQuery{}) {
		byReason[ev.Reason]++
	}
	want := map[string]int{ReasonPanic: 1, ReasonError: 1, ReasonSlow: 1, ReasonSample: 4}
	for reason, n := range want {
		if byReason[reason] != n {
			t.Errorf("reason %s: %d retained, want %d", reason, byReason[reason], n)
		}
	}
}

func TestFlightRingBound(t *testing.T) {
	f := NewFlightRecorder(0, 4, 0, nil)
	for i := 0; i < 10; i++ {
		f.Record(Event{Status: 500, Rows: i}, nil)
	}
	evs := f.Query(FlightQuery{})
	if len(evs) != 4 {
		t.Fatalf("ring size 4: got %d events", len(evs))
	}
	// Newest first: rows 9, 8, 7, 6.
	for i, ev := range evs {
		if want := 9 - i; ev.Rows != want {
			t.Errorf("event %d: rows %d, want %d", i, ev.Rows, want)
		}
	}
}

func TestFlightQueryFilters(t *testing.T) {
	f := NewFlightRecorder(time.Second, 64, 1, nil)
	f.Record(Event{Route: "POST /v1/query", Status: 200, DurationMicros: 500}, nil)
	f.Record(Event{Route: "POST /v1/query", Status: 200, DurationMicros: 2_000_000}, nil)
	f.Record(Event{Route: "POST /v1/estimate", Status: 400, DurationMicros: 100}, nil)
	f.Record(Event{Route: "GET /metrics", Status: 200, DurationMicros: 50}, nil)

	if got := len(f.Query(FlightQuery{Route: "/v1/query"})); got != 2 {
		t.Errorf("route filter: %d events, want 2", got)
	}
	if got := len(f.Query(FlightQuery{MinMicros: 1_000_000})); got != 1 {
		t.Errorf("min filter: %d events, want 1", got)
	}
	if evs := f.Query(FlightQuery{ErrorsOnly: true}); len(evs) != 1 || evs[0].Status != 400 {
		t.Errorf("errors filter: got %+v, want the one 400", evs)
	}
	if got := len(f.Query(FlightQuery{Limit: 3})); got != 3 {
		t.Errorf("limit: %d events, want 3", got)
	}
}

// TestFlightSpansLazy asserts the span report is materialized only for
// retained events — the cost model tail-sampling is meant to buy.
func TestFlightSpansLazy(t *testing.T) {
	f := NewFlightRecorder(time.Second, 64, 1000, nil)
	calls := 0
	spans := func() *obs.SpanReport {
		calls++
		return &obs.SpanReport{Name: "req"}
	}
	f.Record(Event{Status: 200, DurationMicros: 1}, spans) // sampled (1st)
	for i := 0; i < 10; i++ {
		f.Record(Event{Status: 200, DurationMicros: 1}, spans) // all dropped
	}
	f.Record(Event{Status: 500}, spans) // retained
	if calls != 2 {
		t.Errorf("span builder ran %d times, want 2 (only for retained events)", calls)
	}
	for _, ev := range f.Query(FlightQuery{}) {
		if ev.Spans == nil {
			t.Errorf("retained event %d missing span tree", ev.Seq)
		}
	}
}

func TestFlightRetentionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFlightRecorder(time.Second, 8, 2, reg)
	f.Record(Event{Status: 500}, nil)
	f.Record(Event{Status: 200, DurationMicros: 1}, nil) // sampled
	f.Record(Event{Status: 200, DurationMicros: 1}, nil) // dropped
	snap := reg.Snapshot()
	if got := snap["sdbd_telemetry_requests_observed_total"]; got != 3 {
		t.Errorf("observed %g, want 3", got)
	}
	if got := snap[`sdbd_telemetry_requests_retained_total{reason="error"}`]; got != 1 {
		t.Errorf("retained{error} %g, want 1", got)
	}
	if got := snap[`sdbd_telemetry_requests_retained_total{reason="sample"}`]; got != 1 {
		t.Errorf("retained{sample} %g, want 1", got)
	}
}
