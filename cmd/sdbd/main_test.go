package main

import (
	"path/filepath"
	"testing"
	"time"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/server"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestDebugEndpointsOptIn(t *testing.T) {
	opts, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.EnablePprof || opts.cfg.EnableExpvar {
		t.Fatalf("debug endpoints must default off, got pprof=%v expvar=%v",
			opts.cfg.EnablePprof, opts.cfg.EnableExpvar)
	}
	opts, err = parseFlags([]string{"-pprof", "-expvar"})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.cfg.EnablePprof || !opts.cfg.EnableExpvar {
		t.Fatalf("flags did not enable debug endpoints: pprof=%v expvar=%v",
			opts.cfg.EnablePprof, opts.cfg.EnableExpvar)
	}
}

func TestWorkersFlag(t *testing.T) {
	opts, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.Workers != 0 {
		t.Fatalf("workers must default to 0 (auto), got %d", opts.cfg.Workers)
	}
	opts, err = parseFlags([]string{"-workers", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.Workers != 3 {
		t.Fatalf("-workers 3 parsed as %d", opts.cfg.Workers)
	}
}

func TestPreload(t *testing.T) {
	dir := t.TempDir()
	if err := dataset.SaveFile(filepath.Join(dir, "roads.sds"), datagen.Uniform("x", 200, 0.01, 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Level: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := preload(srv, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Snapshot().Catalog.Table("roads"); err != nil {
		t.Fatalf("preloaded table missing: %v", err)
	}
	if err := preload(srv, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestResilienceFlags(t *testing.T) {
	opts, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !opts.cfg.Admission {
		t.Fatal("admission must default on")
	}
	if opts.cfg.MaxInflight != 0 {
		t.Fatalf("max-inflight default = %d, want 0 (auto)", opts.cfg.MaxInflight)
	}
	if opts.cfg.WALRetry.Max != 4 {
		t.Fatalf("wal-retry default = %d, want 4", opts.cfg.WALRetry.Max)
	}
	if opts.cfg.AdmissionTarget != 250*time.Millisecond {
		t.Fatalf("admission target default = %v, want the slow-query default", opts.cfg.AdmissionTarget)
	}

	opts, err = parseFlags([]string{
		"-admission=false", "-max-inflight", "12", "-wal-retry", "0", "-slow-query", "100ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.Admission || opts.cfg.MaxInflight != 12 {
		t.Fatalf("resilience flags not threaded through: %+v", opts.cfg)
	}
	if opts.cfg.WALRetry.Max != -1 {
		t.Fatalf("-wal-retry 0 parsed as Max=%d, want -1 (disabled)", opts.cfg.WALRetry.Max)
	}
	if opts.cfg.AdmissionTarget != 100*time.Millisecond {
		t.Fatalf("admission target = %v, want -slow-query value", opts.cfg.AdmissionTarget)
	}
}

func TestTelemetryFlags(t *testing.T) {
	opts, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike pprof/expvar, telemetry defaults on: it is the production
	// observability surface, not a debug tap.
	if !opts.cfg.EnableTelemetry {
		t.Fatal("telemetry must default on")
	}
	if opts.cfg.Telemetry.SlowQuery != 250*time.Millisecond {
		t.Fatalf("slow-query default = %v", opts.cfg.Telemetry.SlowQuery)
	}

	opts, err = parseFlags([]string{"-telemetry=false", "-slow-query", "75ms"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cfg.EnableTelemetry {
		t.Fatal("-telemetry=false ignored")
	}
	// Everything but the slow threshold is the telemetry package's default
	// (the zero value): the flags that only ever restated those are gone.
	if tc := opts.cfg.Telemetry; tc.SlowQuery != 75*time.Millisecond ||
		tc.Interval != 0 || tc.RingSize != 0 || tc.FlightRing != 0 || tc.SampleN != 0 || tc.Drift.Threshold != 0 {
		t.Fatalf("telemetry options = %+v, want only SlowQuery set", tc)
	}
	for _, gone := range []string{
		"-telemetry-interval=2s", "-telemetry-ring=17", "-flight-ring=33",
		"-flight-sample=5", "-drift-threshold=0.5", "-degraded-read-only=false",
	} {
		if _, err := parseFlags([]string{gone}); err == nil {
			t.Errorf("removed flag %s still accepted", gone)
		}
	}
}
