// Package telemetry is the continuous-evidence layer on top of internal/obs:
// where obs answers "what are the counters now?", telemetry answers "what
// were they over the last hour, what happened to that one slow request, and
// is the estimator still honest?". It has three cooperating pieces, all
// stdlib-only and bounded-memory:
//
//   - Store, an in-process time-series database: a scraper samples a metric
//     snapshot on a fixed interval into per-series fixed-size ring buffers,
//     classifies counter-like series by the exposition's naming convention,
//     and serves windows with per-interval rates, in deterministic order.
//   - FlightRecorder, a bounded ring of per-request "wide events" with
//     tail-sampling retention: errors, panics, and slow requests are always
//     kept (with their span trees); the fast bulk is kept 1-in-N.
//   - Watchdog, the estimator-drift monitor: windowed P² quantile sketches
//     over per-table-pair relative error, exported as gauges and raising a
//     drift flag the server logs. The flag triggers nothing: the statistics
//     are maintained incrementally and exactly, so a rebuild cannot move
//     them — a flagged pair is one the estimator itself gets wrong.
//
// The pieces share one obs.Registry so the subsystem's own health
// (scrape counts, retained events, drift flags) shows up in /metrics like
// everything else.
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
	// Drift tunes the estimator-drift watchdog.
	Drift DriftConfig
	// OnDrift is invoked from Tick, once per window, for every table pair
	// whose p90 relative error newly crossed the drift threshold — the hook
	// the server uses to log the offending pair.
	OnDrift func(Pair, float64)
}

// Telemetry bundles the three subsystems behind one lifecycle: New wires
// them to a shared registry, Tick advances the scraper and the drift
// evaluation together, Run tickers Tick until cancelled.
type Telemetry struct {
	reg      *obs.Registry
	store    *Store
	flight   *FlightRecorder
	watchdog *Watchdog
	interval time.Duration
	onDrift  func(Pair, float64)
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
		watchdog: NewWatchdog(o.Drift, reg),
		interval: o.Interval,
		onDrift:  o.OnDrift,
		scrapes: reg.Counter("sdbd_telemetry_scrapes_total",
			"Completed telemetry scrape ticks."),
	}
	return t
}

// Registry returns the subsystem's own instrument registry (scrape counts,
// retained-event counts, drift gauges) for merging into /metrics.
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Store returns the time-series store.
func (t *Telemetry) Store() *Store { return t.store }

// Flight returns the request flight recorder.
func (t *Telemetry) Flight() *FlightRecorder { return t.flight }

// Watchdog returns the estimator-drift watchdog.
func (t *Telemetry) Watchdog() *Watchdog { return t.watchdog }

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

// Tick runs one scrape pass at the given instant and evaluates the drift
// watchdog, invoking the configured drift callback for every pair that newly
// crossed the threshold. Exposed so tests and operators drive deterministic
// ticks instead of waiting for the ticker.
func (t *Telemetry) Tick(now time.Time) {
	t.store.Tick(now)
	t.scrapes.Inc()
	for _, d := range t.watchdog.Evaluate() {
		if t.onDrift != nil {
			t.onDrift(d.Pair, d.P90)
		}
	}
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
