package telemetry

import (
	"encoding/json"
	"testing"
	"time"

	"spatialsel/internal/obs"
)

// tickN drives n scrapes at 1s spacing starting from a fixed epoch.
func tickN(s *Store, n int) time.Time {
	now := time.UnixMilli(1_700_000_000_000)
	for i := 0; i < n; i++ {
		now = now.Add(time.Second)
		s.Tick(now)
	}
	return now
}

func TestStoreRingWrap(t *testing.T) {
	ticks := 0
	snap := func() map[string]float64 {
		ticks++
		return map[string]float64{"sdbd_x_total": float64(ticks)}
	}
	s := NewStore(snap, 4, 0, nil)
	now := tickN(s, 7)

	res := s.Query([]string{"sdbd_x_total"}, 0, now)
	if len(res.Series) != 1 {
		t.Fatalf("want 1 series, got %d", len(res.Series))
	}
	pts := res.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("ring size 4 after 7 ticks: want 4 points, got %d", len(pts))
	}
	// Oldest retained sample is tick 4 (ticks 1-3 were evicted).
	for i, p := range pts {
		if want := float64(4 + i); p.Value != want {
			t.Errorf("point %d: value %g, want %g", i, p.Value, want)
		}
	}
	if res.Ticks != 7 {
		t.Errorf("ticks %d, want 7", res.Ticks)
	}
	if res.MaxSamples != 4 {
		t.Errorf("max samples %d, want 4", res.MaxSamples)
	}
}

func TestStoreCounterRates(t *testing.T) {
	vals := map[string]float64{"sdbd_reqs_total": 0, "sdbd_inflight": 3}
	snap := func() map[string]float64 {
		vals["sdbd_reqs_total"] += 10 // +10 per 1s tick → rate 10/s
		out := make(map[string]float64, len(vals))
		for k, v := range vals {
			out[k] = v
		}
		return out
	}
	s := NewStore(snap, 16, 0, nil)
	now := tickN(s, 4)

	res := s.Query([]string{"sdbd_"}, 0, now)
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	// Sorted by name: sdbd_inflight (gauge) before sdbd_reqs_total (counter).
	gauge, counter := res.Series[0], res.Series[1]
	if gauge.Name != "sdbd_inflight" || gauge.Kind != "gauge" {
		t.Fatalf("series[0] = %s/%s, want sdbd_inflight/gauge", gauge.Name, gauge.Kind)
	}
	if counter.Name != "sdbd_reqs_total" || counter.Kind != "counter" {
		t.Fatalf("series[1] = %s/%s, want sdbd_reqs_total/counter", counter.Name, counter.Kind)
	}
	for i, p := range counter.Points {
		if i == 0 {
			if p.Rate != 0 {
				t.Errorf("first counter point has no predecessor: rate %g, want 0", p.Rate)
			}
			continue
		}
		if p.Rate != 10 {
			t.Errorf("counter point %d: rate %g, want 10", i, p.Rate)
		}
	}
	for i, p := range gauge.Points {
		if p.Rate != 0 {
			t.Errorf("gauge point %d: rate %g, want 0", i, p.Rate)
		}
	}
}

func TestStoreWindowAndRateAcrossCutoff(t *testing.T) {
	n := 0.0
	s := NewStore(func() map[string]float64 {
		n += 5
		return map[string]float64{"sdbd_n_total": n}
	}, 16, 0, nil)
	now := tickN(s, 10)

	// Window of 2.5s keeps the last 3 samples (8s, 9s, 10s... spaced 1s:
	// cutoff now-2.5s keeps samples at now, now-1s, now-2s).
	res := s.Query([]string{"sdbd_n_total"}, 2500*time.Millisecond, now)
	pts := res.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("want 3 in-window points, got %d", len(pts))
	}
	// The first in-window point still has a rate: its predecessor exists in
	// the ring even though it falls outside the window.
	if pts[0].Rate != 5 {
		t.Errorf("first in-window rate %g, want 5 (computed against pre-window predecessor)", pts[0].Rate)
	}
}

func TestStoreSeriesKind(t *testing.T) {
	cases := map[string]string{
		"sdbd_requests_total":                   "counter",
		"sdbd_requests_total{route=\"GET /x\"}": "counter",
		"sdbd_request_duration_seconds_sum":     "counter",
		"sdbd_request_duration_seconds_count":   "counter",
		"sdbd_inflight_requests":                "gauge",
		"sdbd_ingest_delta_items{table=\"a\"}":  "gauge",
		"sdbd_telemetry_series":                 "gauge",
	}
	for name, want := range cases {
		if got := seriesKind(name); got != want {
			t.Errorf("seriesKind(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestStoreMaxSeriesCap(t *testing.T) {
	snap := func() map[string]float64 {
		return map[string]float64{
			"sdbd_a": 1, "sdbd_b": 2, "sdbd_c": 3, "sdbd_d": 4,
		}
	}
	reg := obs.NewRegistry()
	s := NewStore(snap, 8, 2, reg)
	now := tickN(s, 3)

	res := s.Query(nil, 0, now)
	if len(res.Series) != 2 {
		t.Fatalf("cap 2: got %d series", len(res.Series))
	}
	// Ingestion is in sorted name order, so the cap deterministically keeps
	// the lexicographically first series.
	if res.Series[0].Name != "sdbd_a" || res.Series[1].Name != "sdbd_b" {
		t.Errorf("kept %s, %s; want sdbd_a, sdbd_b", res.Series[0].Name, res.Series[1].Name)
	}
	if res.Dropped != 6 { // 2 dropped series × 3 ticks
		t.Errorf("dropped %d, want 6", res.Dropped)
	}
}

func TestStoreQueryJSONDeterministic(t *testing.T) {
	k := 0.0
	s := NewStore(func() map[string]float64 {
		k++
		return map[string]float64{"sdbd_z": k, "sdbd_a_total": k * 2, "sdbd_m": k * 3}
	}, 8, 0, nil)
	now := tickN(s, 5)

	first, err := json.Marshal(s.Query(nil, 0, now))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := json.Marshal(s.Query(nil, 0, now))
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("query %d rendered differently:\n%s\nvs\n%s", i, again, first)
		}
	}
}
