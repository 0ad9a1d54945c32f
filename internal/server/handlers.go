package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
	"spatialsel/internal/sdb"
	"spatialsel/internal/telemetry"
)

// ---- JSON plumbing ----------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON reads a request body into v, rejecting unknown fields so typos
// in client payloads fail loudly instead of being ignored. The body is one
// JSON value: anything after it but whitespace is refused too, rather than
// answering the first value and dropping the rest. The ResponseWriter must be
// the real one: MaxBytesReader uses it to disable keep-alive on the
// connection once the limit is blown.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("bad request body: data after the JSON value")
	}
	return nil
}

// maxGeneratorItems bounds a generator spec's n — the generators allocate n
// rectangles up front, so an unbounded value would let one request exhaust
// memory. It is sized to the paper's largest table with room to spare.
const maxGeneratorItems = 4_000_000

// maxRequestWorkers bounds a query's workers field. The join kernel and the
// probe pool size slices and start goroutines by it, so an unbounded value
// would let one request exhaust memory and the scheduler.
const maxRequestWorkers = 64

// statusForError maps engine errors onto HTTP codes: cancellation and
// deadline become 503/504, everything else is the caller's fault.
func statusForError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// ---- tables -----------------------------------------------------------

// GeneratorSpec names one of the synthetic dataset generators (the kinds
// datagen.Generate dispatches, as `spatialsel generate` offers them).
type GeneratorSpec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
}

// CreateTableRequest registers a table from exactly one source: a generator
// spec or inline rectangles. Server-side files are loaded by the operator
// (sdbd -load), never named by a client.
type CreateTableRequest struct {
	Name      string         `json:"name"`
	Replace   bool           `json:"replace,omitempty"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
	Items     [][4]float64   `json:"items,omitempty"`
}

// TableInfo is the public summary of a registered table. DeltaItems and
// Tombstones size the overlay the served image carries since the table's last
// fold — what every join and probe on it reads beside the packed base (both 0
// for a table that was never mutated or has just been folded).
type TableInfo struct {
	Name       string  `json:"name"`
	Items      int     `json:"items"`
	Generation uint64  `json:"generation"`
	DeltaItems int     `json:"delta_items"`
	Tombstones int     `json:"tombstones"`
	StatsLevel int     `json:"stats_level"`
	StatsBytes int64   `json:"stats_bytes"`
	Coverage   float64 `json:"coverage"`
	AvgWidth   float64 `json:"avg_width"`
	AvgHeight  float64 `json:"avg_height"`
}

func (s *Server) tableInfo(snap *Snapshot, t *sdb.Table) TableInfo {
	live, _ := t.LiveData()
	ds := live.ComputeStats()
	deltaItems, tombstones := t.Packed.Overlay()
	return TableInfo{
		Name:       t.Name,
		Items:      t.Len(),
		Generation: snap.Generation(t.Name),
		DeltaItems: deltaItems,
		Tombstones: tombstones,
		StatsLevel: t.Stats.Level(),
		StatsBytes: t.Stats.SizeBytes(),
		Coverage:   ds.Coverage,
		AvgWidth:   ds.AvgWidth,
		AvgHeight:  ds.AvgHeight,
	}
}

// buildDataset materializes the request's dataset source.
func buildDataset(req *CreateTableRequest) (*dataset.Dataset, error) {
	if (req.Generator != nil) == (len(req.Items) > 0) {
		return nil, fmt.Errorf("exactly one of generator, items must be given")
	}
	if req.Generator != nil {
		return generate(req.Name, req.Generator)
	}
	items := make([]geom.Rect, len(req.Items))
	extent := geom.NewRect(req.Items[0][0], req.Items[0][1], req.Items[0][2], req.Items[0][3])
	for i, r := range req.Items {
		items[i] = geom.NewRect(r[0], r[1], r[2], r[3])
		extent = extent.Union(items[i])
	}
	return dataset.New(req.Name, extent, items), nil
}

func generate(name string, g *GeneratorSpec) (*dataset.Dataset, error) {
	if g.N <= 0 || g.N > maxGeneratorItems {
		return nil, fmt.Errorf("generator n must be in [1, %d], got %d", maxGeneratorItems, g.N)
	}
	return datagen.Generate(g.Kind, name, g.N, datagen.ItemSize, g.Seed)
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	var req CreateTableRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, err := buildDataset(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A replace retires the old table's mutation front around the swap: its
	// WAL describes state that no longer exists, and nothing it still does
	// may reach the store. The next mutation opens a front on the new table.
	var t *sdb.Table
	register := func() bool {
		t, _, err = s.store.Register(d, req.Replace)
		return err == nil
	}
	var forgetErr error
	if req.Replace {
		forgetErr = s.ingest.Forget(req.Name, register)
	} else {
		register()
	}
	if err != nil {
		// Only a taken name is a conflict; a name no WAL file can carry or a
		// dataset that does not build (e.g. a zero-area extent) is the
		// client's bad request.
		code := http.StatusBadRequest
		if errors.Is(err, ErrTableExists) {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	if forgetErr != nil {
		writeError(w, http.StatusInternalServerError,
			"table %q is replaced but the old table's write-ahead log could not be removed (%v): the old table returns on restart", req.Name, forgetErr)
		return
	}
	writeJSON(w, http.StatusCreated, s.tableInfo(s.store.Snapshot(), t))
}

func (s *Server) handleListTables(w http.ResponseWriter, _ *http.Request) {
	snap := s.store.Snapshot()
	names := snap.Catalog.Names()
	infos := make([]TableInfo, 0, len(names))
	for _, n := range names {
		t, err := snap.Catalog.Table(n)
		if err != nil {
			continue // table dropped between Names and Table on another snapshot — impossible here, defensive
		}
		infos = append(infos, s.tableInfo(snap, t))
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": infos})
}

func (s *Server) handleGetTable(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	t, err := snap.Catalog.Table(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.tableInfo(snap, t))
}

func (s *Server) handleDropTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var dropped bool
	var dropErr error
	err := s.ingest.Forget(name, func() bool {
		dropped, dropErr = s.store.Drop(name)
		return dropped
	})
	switch {
	case dropErr != nil:
		writeError(w, http.StatusInternalServerError, "%v", dropErr)
	case !dropped:
		writeError(w, http.StatusNotFound, "unknown table %q", name)
	case err != nil:
		writeError(w, http.StatusInternalServerError,
			"table %q is dropped but its write-ahead log could not be removed (%v): the table returns on restart", name, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
	}
}

// ---- query parsing shared by estimate/explain/query -------------------

// QuerySpec is the wire form of a multi-way join query.
type QuerySpec struct {
	Tables     []string              `json:"tables"`
	Predicates [][2]string           `json:"predicates"`
	Windows    map[string][4]float64 `json:"windows,omitempty"`
}

func (qs *QuerySpec) toQuery() sdb.Query {
	q := sdb.Query{Tables: qs.Tables}
	for _, p := range qs.Predicates {
		q.Predicates = append(q.Predicates, sdb.Predicate{Left: p[0], Right: p[1]})
	}
	if len(qs.Windows) > 0 {
		q.Windows = make(map[string]geom.Rect, len(qs.Windows))
		for t, w := range qs.Windows {
			q.Windows[t] = geom.NewRect(w[0], w[1], w[2], w[3])
		}
	}
	return q
}

// ---- estimate ---------------------------------------------------------

// EstimateRequest asks for a join-selectivity estimate: either pairwise
// (left/right, method, fraction) or multi-way (a QuerySpec, estimated through
// the planner's GH statistics) — a body with fields of both is a 400.
type EstimateRequest struct {
	Left     string  `json:"left,omitempty"`
	Right    string  `json:"right,omitempty"`
	Method   string  `json:"method,omitempty"`   // gh (default), basicgh, ph, rs, rswr, ss
	Fraction float64 `json:"fraction,omitempty"` // sampling fraction in (0, 1]; 0 means 0.1

	Tables     []string              `json:"tables,omitempty"`
	Predicates [][2]string           `json:"predicates,omitempty"`
	Windows    map[string][4]float64 `json:"windows,omitempty"`
}

// EstimateResponse carries the estimate plus provenance: the method, and
// whether the table memo answered it (cached) instead of an estimator.
type EstimateResponse struct {
	Kind          string  `json:"kind"` // "pairwise" or "multiway"
	Method        string  `json:"method"`
	PairCount     float64 `json:"pair_count"`
	Selectivity   float64 `json:"selectivity"`
	Cached        bool    `json:"cached"`
	EstCost       float64 `json:"est_cost,omitempty"` // multiway: Σ intermediate rows
	ElapsedMicros int64   `json:"elapsed_micros"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A body is one kind of estimate or the other: the fields of the kind not
	// asked for would be ignored, so a body naming both is refused.
	pairwise := req.Left != "" || req.Right != "" || req.Method != "" || req.Fraction != 0
	if pairwise && (len(req.Tables) > 0 || len(req.Predicates) > 0 || len(req.Windows) > 0) {
		writeError(w, http.StatusBadRequest, "left, right, method and fraction ask for a pairwise estimate; tables, predicates and windows for a multi-way one: give one kind")
		return
	}
	if req.Fraction < 0 || req.Fraction > 1 {
		writeError(w, http.StatusBadRequest, "fraction must be in (0, 1], or 0 for the default 0.1; got %g", req.Fraction)
		return
	}
	start := time.Now()
	snap := s.store.Snapshot()
	ev := eventFrom(r.Context())

	if !pairwise {
		ev.Tables = req.Tables
		qs := QuerySpec{Tables: req.Tables, Predicates: req.Predicates, Windows: req.Windows}
		plan, err := snap.Catalog.Plan(qs.toQuery())
		if err != nil {
			writeError(w, statusForError(err), "%v", err)
			return
		}
		final := plan.Steps[len(plan.Steps)-1].EstRows
		ev.EstRows = &final
		recordBuild(ev, "gh", plan.StatsBuild)
		card := 1.0
		for _, name := range req.Tables {
			t, err := snap.Catalog.Table(name)
			if err != nil {
				writeError(w, http.StatusNotFound, "%v", err)
				return
			}
			card *= float64(t.Len())
		}
		resp := EstimateResponse{
			Kind:          "multiway",
			Method:        "gh-plan",
			PairCount:     final,
			EstCost:       plan.EstCost,
			ElapsedMicros: time.Since(start).Microseconds(),
		}
		if card > 0 {
			resp.Selectivity = final / card
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	if req.Left == "" || req.Right == "" {
		writeError(w, http.StatusBadRequest, "either left+right or tables+predicates must be given")
		return
	}
	method := req.Method
	if method == "" {
		method = "gh"
	}
	ev.Tables = []string{req.Left, req.Right}
	a, err := snap.Catalog.Table(req.Left)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b, err := snap.Catalog.Table(req.Right)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Every estimator here is symmetric, so the pair is estimated in name
	// order and a⋈b and b⋈a share one memo entry.
	if a.Name > b.Name {
		a, b = b, a
	}
	est, hit, took, err := a.Estimate(method, b, req.Fraction)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ev.EstRows = &est.PairCount
	ev.CacheHit = &hit
	recordBuild(ev, method, took)
	writeJSON(w, http.StatusOK, EstimateResponse{
		Kind:          "pairwise",
		Method:        method,
		PairCount:     est.PairCount,
		Selectivity:   est.Selectivity,
		Cached:        hit,
		ElapsedMicros: time.Since(start).Microseconds(),
	})
}

// recordBuild writes what a request spent computing estimates the tables did
// not already hold into its record: nothing when every estimate was a lookup.
// A miss shorter than a microsecond still reads 1, so finish counts it.
func recordBuild(ev *telemetry.Event, technique string, built time.Duration) {
	if built > 0 {
		ev.Estimator = technique
		ev.EstBuildMicros = int64((built + time.Microsecond - 1) / time.Microsecond)
	}
}

// ---- explain ----------------------------------------------------------

// ExplainStep is one planner step in the response.
type ExplainStep struct {
	Table   string  `json:"table"`
	EstRows float64 `json:"est_rows"`
}

// ExplainResponse is the planner's output plus the price of the plan's first
// join as the executor runs it — the entries of the two images' tile runs the
// sweep visits (sdb.Plan.JoinWork) — so clients see estimated result size and
// modeled physical cost side by side.
type ExplainResponse struct {
	Plan               string        `json:"plan"`
	Base               string        `json:"base"`
	Steps              []ExplainStep `json:"steps"`
	EstCost            float64       `json:"est_cost"`
	EstRows            float64       `json:"est_rows"`
	ModeledJoinEntries int           `json:"modeled_join_entries"` // tile-run entries the first join sweeps
	ElapsedMicros      int64         `json:"elapsed_micros"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var qs QuerySpec
	if err := decodeJSON(w, r, &qs); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	ev := eventFrom(r.Context())
	ev.Tables = qs.Tables
	plan, err := s.store.Snapshot().Catalog.Plan(qs.toQuery())
	if err != nil {
		writeError(w, statusForError(err), "%v", err)
		return
	}
	estRows := plan.Steps[len(plan.Steps)-1].EstRows
	ev.EstRows = &estRows
	recordBuild(ev, "gh", plan.StatsBuild)
	resp := ExplainResponse{
		Plan:               plan.Explain(),
		Base:               plan.Base,
		EstCost:            plan.EstCost,
		EstRows:            estRows,
		ModeledJoinEntries: plan.JoinWork(),
	}
	for _, st := range plan.Steps {
		resp.Steps = append(resp.Steps, ExplainStep{Table: st.Table, EstRows: st.EstRows})
	}
	resp.ElapsedMicros = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// ---- query ------------------------------------------------------------

// QueryRequest executes a join query and returns one page of its rows, with
// the total. Only the page's rows are made: a two-table result is counted and
// the page swept out of the join, a longer one materialized and sliced. Limit
// and Offset must not be negative; a Limit of 0 or above the server's cap
// (sdbd -max-rows) serves the cap, and an Offset past the end serves an empty
// page.
type QueryRequest struct {
	Tables     []string              `json:"tables"`
	Predicates [][2]string           `json:"predicates"`
	Windows    map[string][4]float64 `json:"windows,omitempty"`
	Limit      int                   `json:"limit,omitempty"`
	Offset     int                   `json:"offset,omitempty"`
	// Workers sets this query's executor parallelism: 0 uses the server
	// default (sdbd -workers), 1 forces serial execution, larger values force
	// that pool size for the first join's tile sweep and the extension-step
	// probes. Rows and their order do not depend on it.
	Workers int `json:"workers,omitempty"`
}

// QueryResponse returns a page of result rows (item indices per column) plus
// the totals the page was cut from. With ?analyze=1 it also carries the
// EXPLAIN ANALYZE span tree: per-operator elapsed time, actual rows, the
// planner's estimate, and the resulting relative error.
type QueryResponse struct {
	Columns       []string        `json:"columns"`
	Rows          [][]int         `json:"rows"`
	TotalRows     int             `json:"total_rows"`
	Offset        int             `json:"offset"`
	Truncated     bool            `json:"truncated"`
	EstRows       float64         `json:"est_rows"`
	ElapsedMicros int64           `json:"elapsed_micros"`
	TraceID       string          `json:"trace_id,omitempty"`
	Analyze       *obs.SpanReport `json:"analyze,omitempty"`
	AnalyzeText   string          `json:"analyze_text,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Workers < 0 || req.Workers > maxRequestWorkers {
		writeError(w, http.StatusBadRequest, "workers must be in [0, %d], got %d", maxRequestWorkers, req.Workers)
		return
	}
	if req.Offset < 0 || req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "offset and limit must not be negative, got offset %d limit %d", req.Offset, req.Limit)
		return
	}
	start := time.Now()
	snap := s.store.Snapshot()
	ev := eventFrom(r.Context())
	qs := QuerySpec{Tables: req.Tables, Predicates: req.Predicates, Windows: req.Windows}
	q := qs.toQuery()

	// ?analyze=1 reports the "query" span's subtree; the executor's operator
	// spans hang off it. A request has one trace root: with telemetry on the
	// middleware already installed it and "query" opens under it, so the
	// analyze payload and the retained flight event are the same tree; only a
	// context without a trace gets a root here. Without the flag and without
	// telemetry no trace exists and the engine's StartSpan calls are free.
	ctx := r.Context()
	var analyze *obs.Span
	if v := r.URL.Query().Get("analyze"); v == "1" || v == "true" {
		if obs.SpanFrom(ctx) == nil {
			ctx, analyze = obs.NewTrace(ctx, "query")
		} else {
			ctx, analyze = obs.StartSpan(ctx, "query")
		}
	}

	_, planSp := obs.StartSpan(ctx, "plan")
	plan, err := snap.Catalog.Plan(q)
	if err != nil {
		planSp.End()
		writeError(w, statusForError(err), "%v", err)
		return
	}
	estRows := plan.Steps[len(plan.Steps)-1].EstRows
	planSp.Set("est_rows", estRows)
	planSp.Set("est_cost", plan.EstCost)
	planSp.End()
	ev.Tables = append(make([]string, 0, len(req.Tables)), plan.Base)
	for _, st := range plan.Steps {
		ev.Tables = append(ev.Tables, st.Table)
	}
	ev.EstRows = &estRows
	recordBuild(ev, "gh", plan.StatsBuild)

	// Admission comes after planning (microseconds on memoized
	// selectivities): a request that cannot be planned answered 400 above
	// without touching the controller, so a slot is only ever held — and
	// ReleaseDone's latency signal only ever fed — by a query that executes.
	// A refusal at the concurrency limit is pure backpressure.
	if s.admission != nil {
		if !s.admission.TryAcquire() {
			ev.Admission = telemetry.AdmissionShed
			ra := s.admission.RetryAfter()
			w.Header().Set("Retry-After", retryAfterSeconds(ra))
			writeError(w, http.StatusServiceUnavailable, "query shed: server at its concurrency limit; retry after %s", ra)
			return
		}
		defer func() { s.admission.ReleaseDone(time.Since(start), 0, false) }()
		ev.Admission = telemetry.AdmissionAdmitted
	}

	// 0 defers to the server default (sdbd -workers, itself 0 = auto).
	plan.Workers = req.Workers
	if plan.Workers == 0 {
		plan.Workers = s.workers
	}
	ev.Workers = plan.Workers
	res, err := plan.ExecuteContext(ctx)
	if err != nil {
		writeError(w, statusForError(err), "%v", err)
		return
	}

	// Close the estimation loop: every executed join — one that returned
	// nothing included, the estimate scored against 1 — writes the paper's
	// Estimation Error, the planner's final cardinality estimate (which
	// already accounts for windows) against the result's row count, into its
	// record, once, as the last operator's span has it; finish adds it to the
	// plan's base⋈first pair in the error histogram.
	total := res.Len()
	ev.Rows = total
	rel := core.RelError(estRows, float64(total))
	ev.RelError = &rel

	offset := min(req.Offset, total)
	limit := req.Limit
	if limit <= 0 || limit > s.maxResultRows {
		limit = s.maxResultRows
	}
	rows, err := res.Page(ctx, offset, limit)
	if err != nil {
		writeError(w, statusForError(err), "%v", err)
		return
	}
	analyze.End()
	resp := QueryResponse{
		Columns:       res.Columns,
		Rows:          rows,
		TotalRows:     total,
		Offset:        offset,
		Truncated:     offset+len(rows) < total,
		EstRows:       estRows,
		ElapsedMicros: time.Since(start).Microseconds(),
	}
	if analyze != nil {
		resp.TraceID = ev.TraceID
		resp.Analyze = analyze.Report()
		resp.AnalyzeText = resp.Analyze.Text()
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- health + metrics -------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.store.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"tables":         len(snap.Catalog.Names()),
		"stats_level":    s.store.Level(),
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(s.metrics.Render()))
}

// sortedRoutes is used by tests and the daemon's startup log.
func (s *Server) sortedRoutes() []string {
	out := append([]string(nil), s.routes...)
	sort.Strings(out)
	return out
}
