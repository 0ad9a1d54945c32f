package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/obs"
	"spatialsel/internal/sample"
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
// in client payloads fail loudly instead of being ignored. The ResponseWriter
// must be the real one: MaxBytesReader uses it to disable keep-alive on the
// connection once the limit is blown.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeOverloaded answers a shed query: 503 with the admission controller's
// suggested backoff in the Retry-After header. Callers hold a non-nil
// s.admission.
func (s *Server) writeOverloaded(w http.ResponseWriter, reason string) {
	ra := s.admission.RetryAfter()
	w.Header().Set("Retry-After", retryAfterSeconds(ra))
	writeError(w, http.StatusServiceUnavailable, "query shed: %s; retry after %s", reason, ra)
}

// maxGeneratorItems bounds a generator spec's n — the generators allocate n
// rectangles up front, so an unbounded value would let one request exhaust
// memory. It is sized to the paper's largest table with room to spare.
const maxGeneratorItems = 4_000_000

// maxRequestWorkers bounds a request's workers field. The join kernel and the
// probe pool size slices and start goroutines by it, so an unbounded value
// would let one request exhaust memory and the scheduler.
const maxRequestWorkers = 64

// validWorkers reports whether a request's workers field is in
// [0, maxRequestWorkers], answering 400 when it is not.
func validWorkers(w http.ResponseWriter, workers int) bool {
	if workers < 0 || workers > maxRequestWorkers {
		writeError(w, http.StatusBadRequest, "workers must be in [0, %d], got %d", maxRequestWorkers, workers)
		return false
	}
	return true
}

// resolveWorkers maps a request's workers field onto the effective executor
// parallelism: 0 defers to the server default (sdbd -workers, itself 0 = auto
// by default), anything else is used as given. Out-of-range values are
// rejected before this point.
func (s *Server) resolveWorkers(requested int) int {
	if requested != 0 {
		return requested
	}
	return s.workers
}

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

// GeneratorSpec names one of the synthetic dataset generators (the same
// kinds the sdbsh shell offers).
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
	TreeHeight int     `json:"tree_height"`
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
		TreeHeight: t.Packed.Height(),
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
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "table name is required")
		return
	}
	d, err := buildDataset(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t, _, err := s.store.Register(d, req.Replace)
	if err != nil {
		// Only a taken name is a conflict; a dataset that does not build
		// (e.g. a zero-area extent) is the client's bad request.
		code := http.StatusBadRequest
		if errors.Is(err, ErrTableExists) {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	if req.Replace {
		// The old table's mutation front (and its WAL) describes state that
		// no longer exists; the next mutation reopens against the new table.
		if err := s.ingest.Forget(req.Name); err != nil {
			s.logger.Warn("forget mutation front", "table", req.Name, "error", err)
		}
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
	ok, err := s.store.Drop(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown table %q", name)
		return
	}
	if err := s.ingest.Forget(name); err != nil {
		s.logger.Warn("forget mutation front", "table", name, "error", err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
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
// (left/right + method) or multi-way (a QuerySpec, estimated through the
// planner's GH statistics).
type EstimateRequest struct {
	Left     string  `json:"left,omitempty"`
	Right    string  `json:"right,omitempty"`
	Method   string  `json:"method,omitempty"`   // gh (default), basicgh, ph, rs, rswr, ss
	Fraction float64 `json:"fraction,omitempty"` // sampling fraction, default 0.1

	Tables     []string              `json:"tables,omitempty"`
	Predicates [][2]string           `json:"predicates,omitempty"`
	Windows    map[string][4]float64 `json:"windows,omitempty"`

	// Workers parallelizes the summary builds behind build-based estimators
	// (basicgh, ph, rs, rswr, ss): 0 uses the server default, 1 forces
	// serial, ≥ 2 builds the two inputs' summaries concurrently. The gh
	// method reads precomputed statistics and ignores it.
	Workers int `json:"workers,omitempty"`
}

// EstimateResponse carries the estimate plus provenance (method, cache).
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
	if !validWorkers(w, req.Workers) {
		return
	}
	start := time.Now()
	snap := s.store.Snapshot()
	ev := eventFrom(r.Context())

	if len(req.Tables) > 0 {
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
	workers := s.resolveWorkers(req.Workers)
	ev.Workers = workers
	est, cached, built, err := s.estimatePair(r.Context(), snap, req.Left, req.Right, method, req.Fraction, workers)
	if err != nil {
		writeError(w, statusForError(err), "%v", err)
		return
	}
	ev.EstRows = &est.PairCount
	ev.CacheHit = cached
	recordBuild(ev, method, built)
	writeJSON(w, http.StatusOK, EstimateResponse{
		Kind:          "pairwise",
		Method:        method,
		PairCount:     est.PairCount,
		Selectivity:   est.Selectivity,
		Cached:        cached,
		ElapsedMicros: time.Since(start).Microseconds(),
	})
}

// recordBuild writes what a request spent building per-generation estimator
// inputs into its record: nothing when every input was a lookup. A build
// shorter than a microsecond still reads 1, so finish counts it.
func recordBuild(ev *telemetry.Event, technique string, built time.Duration) {
	if built > 0 {
		ev.Estimator = technique
		ev.EstBuildMicros = int64((built + time.Microsecond - 1) / time.Microsecond)
	}
}

// estimatePair computes (or recalls) a pairwise selectivity estimate. The
// cache key canonicalizes the table order — every supported estimator is
// symmetric — and embeds the tables' generations, so a replaced table can
// never serve a stale estimate. built is the time a miss spent building
// per-generation inputs, 0 when the tables already held them.
func (s *Server) estimatePair(ctx context.Context, snap *Snapshot, left, right, method string, fraction float64, workers int) (est core.Estimate, cached bool, built time.Duration, err error) {
	ta, err := snap.Catalog.Table(left)
	if err != nil {
		return core.Estimate{}, false, 0, err
	}
	tb, err := snap.Catalog.Table(right)
	if err != nil {
		return core.Estimate{}, false, 0, err
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.1
	}
	methodKey := method
	if method == "rs" || method == "rswr" || method == "ss" {
		methodKey = fmt.Sprintf("%s:%g", method, fraction)
	}
	a, b := ta, tb
	if strings.Compare(a.Name, b.Name) > 0 {
		a, b = b, a
	}
	key := CacheKey{
		Left: a.Name, Right: b.Name,
		GenL: snap.Generation(a.Name), GenR: snap.Generation(b.Name),
		Method: methodKey, Level: s.store.Level(),
	}
	if est, ok := s.cache.Get(key); ok {
		return est, true, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return core.Estimate{}, false, 0, err
	}
	est, built, err = computeEstimate(a, b, method, fraction, s.store.Level(), workers)
	if err != nil {
		return core.Estimate{}, false, 0, err
	}
	s.cache.Put(key, est)
	return est, false, built, nil
}

// computeEstimate answers a cache miss. What an estimator reads of a table is
// a function of the table value, so the table holds it: gh reads the
// statistics it was published with, ph and basicgh read the table's own
// summary (built by the first request that wants it), and the sampling
// methods draw from the table's live data — fresh per request, since their
// summaries are keyed by a real-valued fraction, but striding a Hilbert order
// the dataset computes once. A miss therefore costs one Estimate, plus the
// draw for sampling.
func computeEstimate(a, b *sdb.Table, method string, fraction float64, level, workers int) (core.Estimate, time.Duration, error) {
	if method == "gh" {
		gh, err := histogram.NewGH(level)
		if err != nil {
			return core.Estimate{}, 0, err
		}
		est, err := gh.Estimate(a.Stats, b.Stats)
		return est, 0, err
	}
	var (
		tech core.Technique
		err  error
	)
	switch method {
	case "basicgh":
		tech, err = histogram.NewBasicGH(level)
	case "ph":
		tech, err = histogram.NewPH(level)
	case "rs", "rswr", "ss":
		m := map[string]sample.Method{"rs": sample.RS, "rswr": sample.RSWR, "ss": sample.SS}[method]
		// Fixed seed keeps sampling estimates deterministic and therefore
		// cacheable: the same request always sees the same answer.
		tech, err = sample.New(m, fraction, sample.WithSeed(1))
	default:
		err = fmt.Errorf("unknown estimation method %q (want gh, basicgh, ph, rs, rswr, ss)", method)
	}
	if err != nil {
		return core.Estimate{}, 0, err
	}
	summarize := func(t *sdb.Table) (core.Summary, time.Duration, error) {
		if method == "basicgh" || method == "ph" {
			return t.HistogramSummary(method)
		}
		d, built := t.LiveData()
		if method == "ss" {
			_, sorted := d.HilbertOrder()
			built += sorted
		}
		sum, err := tech.Build(d)
		return sum, built, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sa, sb, built, err := summarizeBoth(summarize, a, b, workers >= 2)
	if err != nil {
		return core.Estimate{}, 0, err
	}
	est, err := tech.Estimate(sa, sb)
	return est, built, err
}

// summarizeBoth runs summarize on both inputs — concurrently when the
// workers knob (0 = auto) allows two goroutines. Every summary is a pure
// function of its table (sampling draws from a per-call PRNG seeded
// deterministically), so the concurrent run returns exactly the serial
// result; built is the sum over both sides.
func summarizeBoth(summarize func(*sdb.Table) (core.Summary, time.Duration, error), a, b *sdb.Table, concurrent bool) (sa, sb core.Summary, built time.Duration, err error) {
	var (
		wg     sync.WaitGroup
		ba, bb time.Duration
		ea, eb error
	)
	if concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sa, ba, ea = summarize(a)
		}()
	} else {
		sa, ba, ea = summarize(a)
	}
	sb, bb, eb = summarize(b)
	wg.Wait()
	if ea != nil {
		return nil, nil, 0, ea
	}
	if eb != nil {
		return nil, nil, 0, eb
	}
	return sa, sb, ba + bb, nil
}

// ---- explain ----------------------------------------------------------

// ExplainStep is one planner step in the response.
type ExplainStep struct {
	Table   string  `json:"table"`
	EstRows float64 `json:"est_rows"`
}

// ExplainResponse is the planner's output plus the analytic I/O model's
// prediction for the plan's first join — priced as an R-tree join over the
// level statistics the two images recorded — so clients see estimated result
// size and modeled physical cost side by side.
type ExplainResponse struct {
	Plan          string        `json:"plan"`
	Base          string        `json:"base"`
	Steps         []ExplainStep `json:"steps"`
	EstCost       float64       `json:"est_cost"`
	EstRows       float64       `json:"est_rows"`
	ModeledJoinIO float64       `json:"modeled_join_io"` // predicted node accesses, first join
	ElapsedMicros int64         `json:"elapsed_micros"`
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
		Plan:          plan.Explain(),
		Base:          plan.Base,
		EstCost:       plan.EstCost,
		EstRows:       estRows,
		ModeledJoinIO: plan.JoinIO(),
	}
	for _, st := range plan.Steps {
		resp.Steps = append(resp.Steps, ExplainStep{Table: st.Table, EstRows: st.EstRows})
	}
	resp.ElapsedMicros = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// ---- query ------------------------------------------------------------

// QueryRequest executes a join query with pagination over the materialized
// result.
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
	if !validWorkers(w, req.Workers) {
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
	//
	// Stage 1 is the adaptive concurrency limit; a refusal is pure
	// backpressure. Stage 2 is the cost gate. The query's abstract cost is
	// the GH estimate of the result size plus the plan's own price for its
	// driving join (Plan.JoinIO) — the same numbers EXPLAIN reports —
	// priced with the calibrated ns/unit model. Work that cannot finish
	// inside its deadline is shed at arrival instead of timing out after
	// burning a worker pool; feasible-but-expensive work under pressure is
	// downgraded to serial execution so it cannot monopolize the pool.
	var degradedExec bool
	if s.admission != nil {
		if !s.admission.TryAcquire() {
			ev.Admission = telemetry.AdmissionShed
			s.writeOverloaded(w, "server at its concurrency limit")
			return
		}
		var (
			shedByCost bool
			costUnits  float64
		)
		defer func() {
			if shedByCost {
				s.admission.ReleaseShed()
			} else {
				s.admission.ReleaseDone(time.Since(start), costUnits, degradedExec)
			}
		}()
		costUnits = estRows + plan.JoinIO()
		pred := s.admission.PredictCost(costUnits)
		if dl, ok := ctx.Deadline(); ok && pred > time.Until(dl) {
			shedByCost = true
			ev.Admission = telemetry.AdmissionShed
			s.writeOverloaded(w, fmt.Sprintf(
				"predicted cost %s exceeds the request deadline", pred.Round(time.Millisecond)))
			return
		}
		switch {
		case pred > s.admission.Policy().Target && s.admission.UnderPressure():
			degradedExec = true
			ev.Admission = telemetry.AdmissionDegraded
		default:
			ev.Admission = telemetry.AdmissionAdmitted
		}
	}

	plan.Workers = s.resolveWorkers(req.Workers)
	if degradedExec {
		plan.Workers = 1
	}
	ev.Workers = plan.Workers
	res, err := plan.ExecuteContext(ctx)
	if err != nil {
		writeError(w, statusForError(err), "%v", err)
		return
	}
	analyze.End()

	// Close the estimation loop: every executed join — one that returned
	// nothing included, the estimate scored against 1 — writes the paper's
	// Estimation Error, the planner's final cardinality estimate (which
	// already accounts for windows) against the materialized row count, into
	// its record, once, as the last operator's span has it; finish feeds the
	// error histogram and the drift watchdog from there.
	total := res.Len()
	ev.Rows = total
	rel := sdb.RelError(estRows, float64(total))
	ev.RelError = &rel

	offset := req.Offset
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	limit := req.Limit
	if limit <= 0 || limit > s.maxResultRows {
		limit = s.maxResultRows
	}
	end := offset + limit
	if end > total {
		end = total
	}
	resp := QueryResponse{
		Columns:       res.Columns,
		Rows:          res.Rows[offset:end],
		TotalRows:     total,
		Offset:        offset,
		Truncated:     end < total,
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
