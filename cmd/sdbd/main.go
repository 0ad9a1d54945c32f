// Command sdbd is the spatial mini-database daemon: it serves the catalog,
// GH-statistics estimation, planner, and executor over an HTTP JSON API.
//
//	$ go run ./cmd/sdbd -addr :8080
//	$ curl -s localhost:8080/healthz
//	$ curl -s -X POST localhost:8080/v1/tables -d '{"name":"roads","generator":{"kind":"polyline","n":50000,"seed":7}}'
//	$ curl -s -X POST localhost:8080/v1/estimate -d '{"left":"roads","right":"streams"}'
//
// See the README's "Running the server" section for the full endpoint tour.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/resilience"
	"spatialsel/internal/server"
	"spatialsel/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sdbd:", err)
		os.Exit(1)
	}
}

// options is the parsed command line: the server Config plus daemon-only
// settings. Split out of run so tests can assert flag defaults (notably that
// the debug endpoints are opt-in).
type options struct {
	cfg   server.Config
	addr  string
	grace time.Duration
	load  string
}

// parseFlags builds the daemon's options from argv.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("sdbd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	level := fs.Int("level", 0, "GH statistics level (0 = paper default, level 7)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (0 disables)")
	maxRows := fs.Int("max-rows", 10000, "max result rows per query response")
	workers := fs.Int("workers", 0, "default executor parallelism (0 = auto from GOMAXPROCS, 1 = serial)")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown grace period")
	load := fs.String("load", "", "directory of .sds dataset files to preload as tables")
	walDir := fs.String("wal-dir", "", "directory for per-table write-ahead logs (empty disables durable ingest)")
	walRetry := fs.Int("wal-retry", 4, "max retries for transient WAL write/fsync failures (-1 disables retry)")
	admission := fs.Bool("admission", true, "enable the admission gate on /v1/query (adaptive concurrency limit: 503 + Retry-After when every slot is taken)")
	maxInflight := fs.Int("max-inflight", 0, "cap on the adaptive query concurrency limit (0 = 4x GOMAXPROCS)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	enableTelemetry := fs.Bool("telemetry", true, "run the telemetry layer (time-series scraper, request flight recorder) and mount /v1/debug/{timeseries,requests}")
	slowQuery := fs.Duration("slow-query", 250*time.Millisecond, "flight recorder always-retains requests at least this slow")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	retryMax := *walRetry
	if retryMax == 0 {
		retryMax = -1 // flag 0 means "no retries"; the policy spells that -1
	}
	opts := &options{
		cfg: server.Config{
			Level:           *level,
			RequestTimeout:  *timeout,
			MaxResultRows:   *maxRows,
			Workers:         *workers,
			EnablePprof:     *enablePprof,
			WALDir:          *walDir,
			WALRetry:        resilience.RetryPolicy{Max: retryMax},
			Admission:       *admission,
			MaxInflight:     *maxInflight,
			AdmissionTarget: *slowQuery,
			EnableTelemetry: *enableTelemetry,
			// Scrape interval, ring sizes and sampling stride take the
			// telemetry package's defaults.
			Telemetry: telemetry.Options{SlowQuery: *slowQuery},
		},
		addr:  *addr,
		grace: *grace,
		load:  *load,
	}
	if *timeout == 0 {
		opts.cfg.RequestTimeout = -1 // Config: negative disables, zero means default
	}
	return opts, nil
}

// run parses flags and serves until SIGINT/SIGTERM; split from main so tests
// can drive it.
func run(args []string, logw *os.File) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(logw, nil))
	opts.cfg.Logger = logger
	srv, err := server.New(opts.cfg)
	if err != nil {
		return err
	}
	if opts.load != "" {
		if err := preload(srv, opts.load); err != nil {
			return err
		}
	}
	// Recover WAL-backed tables before serving: replayed state must be
	// readable from the first request. Recovery wins over -load for tables
	// present in both (the WAL is newer — it holds post-load mutations).
	recovered, err := srv.Ingest().Recover()
	if err != nil {
		return fmt.Errorf("wal recovery: %w", err)
	}
	if len(recovered) > 0 {
		logger.Info("recovered tables from WAL", "tables", recovered)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Background folder: rebuilds a mutated table's packed base off the hot path.
	go srv.Ingest().Run(ctx)
	defer srv.Ingest().Close()
	// Telemetry scraper: samples /metrics state into the time-series store
	// on the configured interval. Nil-safe when -telemetry=false.
	go srv.Telemetry().Run(ctx)
	logger.Info("sdbd listening", "addr", opts.addr, "stats_level", srv.Store().Level(),
		"workers", opts.cfg.Workers, "wal_dir", opts.cfg.WALDir,
		"pprof", opts.cfg.EnablePprof, "telemetry", opts.cfg.EnableTelemetry)
	err = srv.ListenAndServe(ctx, opts.addr, opts.grace)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// preload registers every .sds file under dir as a table named after the
// file.
func preload(srv *server.Server, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || len(e.Name()) < 5 || e.Name()[len(e.Name())-4:] != ".sds" {
			continue
		}
		d, err := dataset.LoadFile(dir + "/" + e.Name())
		if err != nil {
			return fmt.Errorf("preload %s: %w", e.Name(), err)
		}
		d.Name = e.Name()[:len(e.Name())-4]
		if _, _, err := srv.Store().Register(d, false); err != nil {
			return err
		}
	}
	return nil
}
