// Package telemetry is the continuous-evidence layer on top of internal/obs:
// where obs answers "what are the counters now?", telemetry answers "what
// were they over the last hour, and what happened to that one slow request?".
// It has two cooperating pieces, both stdlib-only and bounded-memory:
//
//   - Store, an in-process time-series database: a scraper samples a metric
//     snapshot on a fixed interval into per-series fixed-size ring buffers,
//     classifies counter-like series by the exposition's naming convention,
//     and serves windows with per-interval rates, in deterministic order.
//   - FlightRecorder, a bounded ring of per-request "wide events" with
//     tail-sampling retention: errors, panics, and slow requests are always
//     kept (with their span trees); the fast bulk is kept 1-in-N.
//
// How wrong the estimator has been lately is not a third piece: the server's
// per-pair sdbd_estimate_rel_error histogram is scraped like any other
// series, so a window of its _sum and _count is a per-pair mean error.
//
// The pieces share one obs.Registry so the subsystem's own health
// (scrape counts, retained events) shows up in /metrics like everything else.
package telemetry

import (
	"context"
	"time"

	"spatialsel/internal/obs"
)

// Options configures a Telemetry instance. The zero value of every field
// takes a documented default; Snapshot is the only required field.
type Options struct {
	// Snapshot samples the metric state to scrape — typically a closure over
	// obs.SnapshotMerged of the server's registries.
	Snapshot func() map[string]float64
	// Interval is the scrape cadence of Run (default 10s). Tick can always be
	// driven manually regardless.
	Interval time.Duration
	// RingSize bounds samples retained per series (default 360 — one hour at
	// the default interval).
	RingSize int
	// MaxSeries bounds the number of distinct series tracked (default 2048);
	// series beyond the cap are counted as dropped, not stored.
	MaxSeries int
	// SlowQuery is the flight recorder's always-retain latency threshold
	// (default 250ms).
	SlowQuery time.Duration
	// FlightRing bounds retained request events (default 512).
	FlightRing int
	// SampleN keeps one in N fast, successful requests (default 16).
	SampleN int
	// Drift is ignored (see DriftConfig).
	Drift DriftConfig
}

// DriftConfig is ignored: estimator error is watched through the server's
// per-pair sdbd_estimate_rel_error histogram, which has no threshold. It stays
// only because the benchmark (bench/run.go) still sets Threshold; ROADMAP
// item 1, the PR that updates bench/, removes it.
type DriftConfig struct {
	// Threshold is read by nothing.
	Threshold float64
}

// Telemetry bundles the two subsystems behind one lifecycle: New wires them
// to a shared registry, Tick advances the scraper, Run tickers Tick until
// cancelled.
type Telemetry struct {
	reg      *obs.Registry
	store    *Store
	flight   *FlightRecorder
	interval time.Duration
	scrapes  *obs.Counter
}

// New builds a Telemetry from the options. The returned instance owns a
// fresh registry (Registry) the caller should merge into its exposition.
func New(o Options) *Telemetry {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	reg := obs.NewRegistry()
	t := &Telemetry{
		reg:      reg,
		store:    NewStore(o.Snapshot, o.RingSize, o.MaxSeries, reg),
		flight:   NewFlightRecorder(o.SlowQuery, o.FlightRing, o.SampleN, reg),
		interval: o.Interval,
		scrapes: reg.Counter("sdbd_telemetry_scrapes_total",
			"Completed telemetry scrape ticks."),
	}
	return t
}

// Registry returns the subsystem's own instrument registry (scrape counts,
// retained-event counts) for merging into /metrics.
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Store returns the time-series store.
func (t *Telemetry) Store() *Store { return t.store }

// Flight returns the request flight recorder.
func (t *Telemetry) Flight() *FlightRecorder { return t.flight }

// Interval returns the scrape cadence Run uses.
func (t *Telemetry) Interval() time.Duration { return t.interval }

// Ready reports whether at least one scrape tick has completed — the debug
// query endpoints return 503 until it has.
func (t *Telemetry) Ready() bool {
	if t == nil {
		return false
	}
	return t.store.Ticks() > 0
}

// Tick runs one scrape pass at the given instant. Exposed so tests and
// operators drive deterministic ticks instead of waiting for the ticker.
func (t *Telemetry) Tick(now time.Time) {
	t.store.Tick(now)
	t.scrapes.Inc()
}

// Run scrapes on the configured interval until ctx is cancelled. Nil-safe:
// a nil receiver (telemetry disabled) returns immediately, so callers can
// launch it unconditionally.
func (t *Telemetry) Run(ctx context.Context) {
	if t == nil {
		return
	}
	ticker := time.NewTicker(t.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			t.Tick(now)
		}
	}
}
