package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"spatialsel/internal/telemetry"
)

// Telemetry debug endpoints. Both are mounted only when telemetry is enabled
// (the pprof gating discipline) and answer 503 until the first scrape tick
// has completed — before that there is no history to serve, and the
// endpoints must degrade, not panic.

// telemetryReady gates a debug handler on the first completed scrape.
func (s *Server) telemetryReady(w http.ResponseWriter) bool {
	if s.telemetry == nil || !s.telemetry.Ready() {
		writeError(w, http.StatusServiceUnavailable,
			"telemetry has no samples yet (first scrape tick pending)")
		return false
	}
	return true
}

// handleDebugTimeseries serves GET /v1/debug/timeseries?series=a,b&window=5m:
// the retained ring-buffer history of every series matching one of the
// comma-separated name prefixes (empty selects everything), restricted to
// the trailing window (empty or 0 keeps all retained samples). Counter-kind
// series carry per-interval rates. Output field order is fixed and series
// are name-sorted, so identical retained state renders byte-identically.
func (s *Server) handleDebugTimeseries(w http.ResponseWriter, r *http.Request) {
	if !s.telemetryReady(w) {
		return
	}
	var patterns []string // nil selects every series
	if raw := r.URL.Query().Get("series"); raw != "" {
		for _, p := range strings.Split(raw, ",") {
			if p = strings.TrimSpace(p); p != "" {
				patterns = append(patterns, p)
			}
		}
	}
	var window time.Duration
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad window %q: %v", raw, err)
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, s.telemetry.Store().Query(patterns, window, time.Now()))
}

// RequestsResponse is the payload of GET /v1/debug/requests.
type RequestsResponse struct {
	NowUnixMS       int64             `json:"now_unix_ms"`
	SlowThresholdMS float64           `json:"slow_threshold_ms"`
	Events          []telemetry.Event `json:"events"`
}

// handleDebugRequests serves GET /v1/debug/requests?route=...&min_ms=...
// &errors=1&limit=N: the flight recorder's retained wide events, newest
// first, filtered by route substring, minimum latency, and error-only.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if !s.telemetryReady(w) {
		return
	}
	q := telemetry.FlightQuery{Route: r.URL.Query().Get("route")}
	if raw := r.URL.Query().Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad min_ms %q", raw)
			return
		}
		q.MinMicros = int64(ms * 1000)
	}
	if raw := r.URL.Query().Get("errors"); raw == "1" || raw == "true" {
		q.ErrorsOnly = true
	}
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		q.Limit = n
	}
	flight := s.telemetry.Flight()
	events := flight.Query(q)
	if events == nil {
		events = make([]telemetry.Event, 0) // render [] rather than null
	}
	writeJSON(w, http.StatusOK, RequestsResponse{
		NowUnixMS:       time.Now().UnixMilli(),
		SlowThresholdMS: float64(flight.SlowThreshold().Microseconds()) / 1000,
		Events:          events,
	})
}
