package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"spatialsel/internal/obs"
	"spatialsel/internal/telemetry"
)

// statusRecorder captures the status code a handler writes so the logging
// and metrics middleware can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// eventCtxKey carries the request's record from instrument to the handler.
type eventCtxKey struct{}

// eventFrom returns the request's record. Every handler is mounted through
// route, so the record is always there; handlers write its fields directly.
func eventFrom(ctx context.Context) *telemetry.Event {
	return ctx.Value(eventCtxKey{}).(*telemetry.Event)
}

// instrument wraps a handler with the server's full middleware stack:
// panic recovery, per-request timeout (threaded to handlers as context
// cancellation), and the request's record — created here, annotated by the
// handler, consumed once by finish. route is the stable label used for
// metrics and logs (e.g. "POST /v1/estimate") so that path parameters do not
// explode the label space.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.metrics.IncInflight()
		defer s.metrics.DecInflight()

		// Every request gets a trace ID: clients see it in the X-Trace-Id
		// header (and analyze reports), logs carry it, so one slow query is
		// greppable end to end. Client-supplied IDs are sanitized before
		// they reach logs or response headers — arbitrary header bytes would
		// otherwise be a log-injection vector.
		traceID := sanitizeTraceID(r.Header.Get("X-Trace-Id"))
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", traceID)

		ev := &telemetry.Event{
			UnixMS:  start.UnixMilli(),
			TraceID: traceID,
			Route:   route,
			Method:  r.Method,
			Path:    r.URL.Path,
		}
		ctx := context.WithValue(r.Context(), eventCtxKey{}, ev)
		// With telemetry on, every request carries the one span root it will
		// ever have, so retained flight-recorder entries come with their span
		// trees; ?analyze=1 opens its span under it. Span creation under a
		// live root is cheap; the report is only materialized for retained
		// events.
		var root *obs.Span
		if s.telemetry != nil {
			ctx, root = obs.NewTrace(ctx, route)
		}
		if s.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)

		defer func() {
			if p := recover(); p != nil {
				ev.Panic = true
				s.logger.Error("panic serving request",
					"route", route, "trace_id", traceID, "panic", p, "stack", string(debug.Stack()))
				// Best effort: the handler may have written already.
				writeError(rec, http.StatusInternalServerError, "internal error")
			}
			ev.Status = rec.status
			ev.DurationMicros = time.Since(start).Microseconds()
			root.End()
			s.finish(ev, root, r.RemoteAddr)
		}()
		h(rec, r)
	}
}

// finish is the one consumer of a finished request's record: the route
// counter and latency histogram, the estimate memo's hit and miss counters and
// the estimator-build counter, the per-pair estimate-error histogram, the
// flight ring and the request log line are all read off the same value. root
// is the request's span tree, nil with telemetry off.
func (s *Server) finish(ev *telemetry.Event, root *obs.Span, remote string) {
	s.metrics.RecordRequest(ev.Route, ev.Status, time.Duration(ev.DurationMicros)*time.Microsecond)
	if ev.RelError != nil {
		// Multi-way plans attribute the error to the base⋈first pair: that
		// first join dominates the plan's cardinality estimate, and for the
		// common two-way query it names the whole query.
		s.metrics.RecordEstimateError(ev.Tables[0], ev.Tables[1], *ev.RelError)
	}
	if ev.CacheHit != nil {
		s.metrics.RecordEstimateLookup(*ev.CacheHit)
	}
	if ev.EstBuildMicros > 0 {
		s.metrics.RecordEstimatorBuild(ev.Estimator)
	}
	if s.telemetry != nil {
		s.telemetry.Flight().Record(*ev, root.Report)
	}
	s.logger.Info("request",
		"route", ev.Route,
		"method", ev.Method,
		"path", ev.Path,
		"status", ev.Status,
		"duration_ms", float64(ev.DurationMicros)/1000,
		"remote", remote,
		"trace_id", ev.TraceID,
	)
}

// sanitizeTraceID validates a client-supplied trace ID: 1–64 characters of
// [0-9a-f-] pass through, anything else (including empty) returns "" so the
// caller mints a fresh ID. Conservative by design — the ID is echoed into
// structured logs and response headers.
func sanitizeTraceID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && c != '-' {
			return ""
		}
	}
	return id
}

// discardLogger returns a logger that drops everything, for tests and for
// callers that pass no logger.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
