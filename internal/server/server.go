package server

import (
	"context"
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/ingest"
	"spatialsel/internal/obs"
	"spatialsel/internal/resilience"
	"spatialsel/internal/sdb"
	"spatialsel/internal/telemetry"
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// Level is the GH statistics level for every table (default
	// sdb.StatisticsLevel, the paper's recommended level 7).
	Level int
	// CacheSize bounds the estimator LRU cache (default 256 entries).
	CacheSize int
	// RequestTimeout cancels a request's context after this long; the
	// cancellation propagates into the join executor. 0 keeps the package
	// default of 30s; negative disables the timeout.
	RequestTimeout time.Duration
	// MaxResultRows caps how many rows one query response may carry
	// (default 10000); clients page through larger results with offset.
	MaxResultRows int
	// Workers is the default executor parallelism for requests that do not
	// set their own: 0 (auto) lets the engine size its pools from GOMAXPROCS
	// with serial fallbacks for small inputs; 1 forces serial execution;
	// larger values force that pool size. Per-request `workers` fields
	// override it.
	Workers int
	// Logger receives structured request logs (default: discard).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and cost CPU, so they
	// are strictly opt-in (sdbd -pprof).
	EnablePprof bool
	// EnableExpvar mounts the expvar handler at /debug/vars. Off by
	// default, opt-in via sdbd -expvar.
	EnableExpvar bool
	// WALDir is where per-table write-ahead logs live (sdbd -wal-dir). Empty
	// disables durability: mutation endpoints still work, but mutated tables
	// do not survive a restart.
	WALDir string
	// Repack tunes the background re-pack policy for mutated tables; zero
	// values take the ingest package defaults.
	Repack ingest.RepackPolicy
	// Admission enables the estimate-driven admission gate on /v1/query: an
	// adaptive concurrency limit plus a cost gate that prices each query with
	// the calibrated GH-estimate cost model and sheds (503 + Retry-After) or
	// downgrades-to-serial work that cannot finish inside its deadline.
	Admission bool
	// MaxInflight caps the adaptive concurrency limit (0 = 4×GOMAXPROCS).
	MaxInflight int
	// AdmissionTarget is the latency the limiter steers admitted queries
	// toward. 0 uses the telemetry slow-query threshold when telemetry is
	// configured, else the resilience default (250ms).
	AdmissionTarget time.Duration
	// WALFS is the filesystem write-ahead logs live on; nil means the real
	// disk. Tests inject a faultfs.Injector here.
	WALFS faultfs.FS
	// WALRetry bounds WAL write/fsync retries; zero values take the
	// resilience defaults (4 retries, exponential backoff with jitter).
	WALRetry resilience.RetryPolicy
	// WALBreaker paces degraded-mode write probes; zero values take defaults.
	WALBreaker resilience.BreakerPolicy
	// EnableTelemetry turns on the continuous-evidence layer: a background
	// metric scraper with ring-buffer history, a per-request flight recorder,
	// and the estimator-drift watchdog, queryable at /v1/debug/timeseries and
	// /v1/debug/requests. The query endpoints are mounted only when this is
	// set (same opt-in discipline as pprof). The caller still owns the scrape
	// loop: run Telemetry().Run in a goroutine (sdbd does).
	EnableTelemetry bool
	// Telemetry tunes the telemetry layer (scrape interval, ring sizes, slow
	// threshold, drift policy). The Snapshot and OnDrift fields are owned by
	// the server and overwritten. Ignored unless EnableTelemetry is set.
	Telemetry telemetry.Options
}

// Server is the HTTP estimation/join service. Create with New, mount with
// Handler.
type Server struct {
	store          *Store
	ingest         *ingest.Manager
	cache          *EstimateCache
	metrics        *Metrics
	admission      *resilience.Controller // nil when disabled
	telemetry      *telemetry.Telemetry   // nil when disabled
	logger         *slog.Logger
	requestTimeout time.Duration
	maxResultRows  int
	workers        int
	mux            *http.ServeMux
	routes         []string
	started        time.Time
}

// New builds a Server with an empty catalog.
func New(cfg Config) (*Server, error) {
	if cfg.Level == 0 {
		cfg.Level = sdb.StatisticsLevel
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	} else if cfg.RequestTimeout < 0 {
		cfg.RequestTimeout = 0
	}
	if cfg.MaxResultRows <= 0 {
		cfg.MaxResultRows = 10000
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	store, err := NewStore(cfg.Level)
	if err != nil {
		return nil, err
	}
	manager := ingest.NewManager(ingest.Options{
		Level: cfg.Level,
		Dir:   cfg.WALDir,
		Lookup: func(name string) (*sdb.Table, error) {
			return store.Snapshot().Catalog.Table(name)
		},
		Publish: store.Publish,
		Repack:  cfg.Repack,
		FS:      cfg.WALFS,
		Retry:   cfg.WALRetry,
		Breaker: cfg.WALBreaker,
	})
	s := &Server{
		store:          store,
		ingest:         manager,
		cache:          NewEstimateCache(cfg.CacheSize),
		metrics:        NewMetrics(),
		logger:         cfg.Logger,
		requestTimeout: cfg.RequestTimeout,
		maxResultRows:  cfg.MaxResultRows,
		workers:        cfg.Workers,
		mux:            http.NewServeMux(),
		started:        time.Now(),
	}
	s.metrics.registerSampled(s.cache, s.store)
	s.metrics.registerIngest(manager)
	if cfg.Admission {
		target := cfg.AdmissionTarget
		if target == 0 {
			target = cfg.Telemetry.SlowQuery
		}
		s.admission = resilience.NewController(resilience.AdmissionPolicy{
			MaxInflight: cfg.MaxInflight,
			Target:      target,
		})
		s.metrics.registerAdmission(s.admission)
	}
	if cfg.EnableTelemetry {
		// The scraper samples exactly what /metrics exposes (request
		// registry, the telemetry layer's own instruments, engine defaults),
		// so the time-series store's history lines up with any live scrape.
		topts := cfg.Telemetry
		topts.Snapshot = func() map[string]float64 {
			return obs.SnapshotMerged(s.metrics.reg, s.telemetry.Registry(), obs.Default)
		}
		topts.OnDrift = s.onDrift
		s.telemetry = telemetry.New(topts)
		s.metrics.merge(s.telemetry.Registry())
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("POST /v1/tables", s.handleCreateTable)
	s.route("GET /v1/tables", s.handleListTables)
	s.route("GET /v1/tables/{name}", s.handleGetTable)
	s.route("DELETE /v1/tables/{name}", s.handleDropTable)
	s.route("POST /v1/tables/{name}/insert", s.handleInsert)
	s.route("POST /v1/tables/{name}/delete", s.handleDelete)
	s.route("POST /v1/tables/{name}/batch", s.handleBatch)
	s.route("POST /v1/estimate", s.handleEstimate)
	s.route("POST /v1/explain", s.handleExplain)
	s.route("POST /v1/query", s.handleQuery)
	// Debug endpoints are mounted raw (no metrics/timeout middleware): a
	// 30s CPU profile must not be cut off by the request timeout, and
	// scrape noise should not pollute the route counters.
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if cfg.EnableExpvar {
		s.mux.Handle("GET /debug/vars", expvar.Handler())
	}
	// Telemetry query endpoints are gated like pprof (mounted only when the
	// subsystem is on) and mounted raw: querying history should not pollute
	// the route counters or the flight ring it is reading.
	if cfg.EnableTelemetry {
		s.mux.HandleFunc("GET /v1/debug/timeseries", s.handleDebugTimeseries)
		s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	}
	return s, nil
}

// onDrift is the watchdog's newly-crossed-pair callback. It reports and
// triggers nothing: a re-pack rebuilds the R-tree, not the histogram, and the
// GH statistics are maintained incrementally and exactly, so there is no
// rebuild that would change the estimate the pair is being flagged for.
func (s *Server) onDrift(p telemetry.Pair, p90 float64) {
	s.logger.Warn("estimator drift detected",
		"left", p.Left, "right", p.Right, "rel_error_p90", p90)
}

func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, s.instrument(pattern, h))
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the table store (tests and the daemon preload tables
// through it).
func (s *Server) Store() *Store { return s.store }

// Ingest exposes the live-ingest manager: the daemon recovers WALs through
// it at startup and runs its background re-pack loop.
func (s *Server) Ingest() *ingest.Manager { return s.ingest }

// Telemetry exposes the telemetry layer, nil when disabled. The daemon runs
// its scrape loop (Telemetry().Run is nil-safe); tests drive Tick directly.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.telemetry }

// Admission exposes the query admission controller, nil when disabled.
// bench/ reads its policy to replay the gate; tests calibrate it and assert
// its counters.
func (s *Server) Admission() *resilience.Controller { return s.admission }

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully, letting in-flight requests finish within grace.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		// Bound what one connection can cost before a handler ever runs: 1MiB
		// of headers (the default, made explicit) and two idle minutes before
		// a kept-alive connection is reclaimed.
		MaxHeaderBytes: 1 << 20,
		IdleTimeout:    2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logger.Info("shutting down", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return nil
}
