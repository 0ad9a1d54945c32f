package telemetry

import (
	"testing"
	"time"
)

func TestTelemetryLifecycle(t *testing.T) {
	vals := 0.0
	tel := New(Options{
		Snapshot: func() map[string]float64 {
			vals++
			return map[string]float64{"sdbd_v_total": vals}
		},
	})
	if tel.Ready() {
		t.Error("Ready before first tick")
	}
	var nilTel *Telemetry
	if nilTel.Ready() {
		t.Error("nil telemetry reports Ready")
	}

	tel.Tick(time.UnixMilli(1_700_000_000_000))
	if !tel.Ready() {
		t.Error("not Ready after a tick")
	}
	if pts := tel.Store().Query([]string{"sdbd_v_total"}, 0, time.UnixMilli(1_700_000_000_000)).Series; len(pts) != 1 || len(pts[0].Points) != 1 {
		t.Errorf("one tick stored %+v, want one point of sdbd_v_total", pts)
	}
	// The telemetry layer's own scrape counter is in its registry.
	if got := tel.Registry().Snapshot()["sdbd_telemetry_scrapes_total"]; got != 1 {
		t.Errorf("scrapes counter %g, want 1", got)
	}
}
