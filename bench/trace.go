package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/ingest"
	"spatialsel/internal/iomodel"
	"spatialsel/internal/resilience"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
	"spatialsel/internal/server"
)

// Span names. The traced round records a request span per op from inside the
// ordinary round loop; everything else is recorded by the replay, which calls
// each layer's public functions itself on the snapshot the requests ran on.
const (
	spanRequest    = "server.request"
	spanRepackPass = "ingest.repack_pass"
	spanGate       = "resilience.gate"
	spanJoinIO     = "iomodel.join_accesses"
	spanPlan       = "sdb.plan"
	spanExec       = "sdb.exec"
	spanKernel     = "rtree.kernel"
	spanSearch     = "rtree.search"
	spanGHEstimate = "histogram.gh_estimate"
	spanGHIncr     = "histogram.gh_incr"
	spanApply      = "ingest.apply"
	spanFsync      = "ingest.fsync"
	spanPublish    = "server.publish"
	spanRepack     = "ingest.repack"
	spanBulkLoad   = "rtree.bulkload"
	spanPack       = "rtree.pack"
	spanGHBuild    = "histogram.gh_build"
	spanPacked     = "rtree.packed_join"
	spanPackedPar  = "rtree.packed_join_par"
	spanPointer    = "rtree.pointer_join"
)

// estimatorSpan names the span of a build-based estimator's replay.
var estimatorSpan = map[string]string{
	"ph": "histogram.ph", "basicgh": "histogram.basicgh", "rs": "sample.rs", "ss": "sample.ss",
}

// span is one timed call into a layer. Parent is the span that would have
// made the call inside the server (-1 for a root); replayed children do not
// nest in time under their parent, so self time is arithmetic: a span's
// duration minus its children's durations.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"` // index in the traced round, -1 outside any op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Units  int    `json:"units"` // calls or records the span covers
}

// tracer keeps spans in memory. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Units: 1, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// observed records a span that just ended and whose duration the callee
// measured itself (the WAL's fsync observer).
func (t *tracer) observed(name string, op, parent int, d time.Duration) {
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Units: 1, Start: end - int64(d), End: end})
}

// total is the per-name aggregate of a trace.
type total struct {
	dur, self time.Duration
	spans     int
	units     int
}

func (t total) meanMs() float64 {
	if t.spans == 0 {
		return 0
	}
	return t.dur.Seconds() * 1e3 / float64(t.spans)
}

func (t total) selfMeanMs() float64 {
	if t.spans == 0 {
		return 0
	}
	return t.self.Seconds() * 1e3 / float64(t.spans)
}

func (t total) perUnitUs() float64 {
	if t.units == 0 {
		return 0
	}
	return t.dur.Seconds() * 1e6 / float64(t.units)
}

// selfTimes returns each span's duration minus its children's durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func totals(spans []span) map[string]total {
	self := selfTimes(spans)
	out := map[string]total{}
	for i, s := range spans {
		t := out[s.Name]
		t.dur += time.Duration(s.End - s.Start)
		t.self += self[i]
		t.spans++
		t.units += s.Units
		out[s.Name] = t
	}
	return out
}

// scrape reads /metrics through the handler and sums each family's series.
func (e *env) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := e.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// replayer re-runs, per op of the traced round, the calls the server made
// into each layer, on the same snapshot, and records them as spans.
type replayer struct {
	ctx   context.Context
	e     *env
	tr    *tracer
	cat   *sdb.Catalog
	level int
	gh    *histogram.GH
	gate  *resilience.Controller

	relErrs []float64 // planner estimate vs executed rows, per query op

	// live-table shadow: a second mutation front opened on the snapshot the
	// traced round started from, with its own WAL, publishing into a scratch
	// store. It takes the round's writes in the same order as the server did.
	shadow   *ingest.Table
	builder  *histogram.GHBuilder
	base     *sdb.Table  // the live table's snapshot when the shadow opened
	inserted []geom.Rect // rectangles the round's writes added, by id − base.Len()
	walBase  int64       // size of the shadow WAL's opening checkpoint
	curOp    int
	curApply int
}

// tracedRound runs one round with a tracer in the loop, then replays it layer
// by layer. baseline is the untraced rounds that ran before it.
func tracedRound(ctx context.Context, e *env, cfg *config, round []op, res []opResult, baseline []roundStat) (map[string]float64, error) {
	tr := &tracer{t0: time.Now()}
	rp, err := newReplayer(ctx, e, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()

	before, err := e.scrape(ctx)
	if err != nil {
		return nil, err
	}
	st := e.runRound(ctx, round, res, tr)
	after, err := e.scrape(ctx)
	if err != nil {
		return nil, err
	}
	requestSpan := make([]int, len(round))
	for id, s := range tr.spans {
		if s.Name == spanRequest {
			requestSpan[s.Op] = id
		}
	}

	rp.cat = e.cat() // the snapshot the round left behind
	for i := range round {
		if err := rp.replayOp(i, requestSpan[i], &round[i], res[i]); err != nil {
			return nil, fmt.Errorf("replay op %d (%s): %w", i, round[i].class, err)
		}
	}
	if err := rp.standalone(round); err != nil {
		return nil, err
	}

	m := map[string]float64{}
	tot := totals(tr.spans)
	delta := func(name string) float64 { return after[name] - before[name] }
	ops := float64(len(round))

	m["server.request_ms"] = tot[spanRequest].meanMs()
	m["server.self_ms"] = tot[spanRequest].selfMeanMs()
	if lookups := delta("sdbd_estimate_cache_hits_total") + delta("sdbd_estimate_cache_misses_total"); lookups > 0 {
		m["server.cache_hit_ratio"] = delta("sdbd_estimate_cache_hits_total") / lookups
	}
	var respBytes, writeSecs, records float64
	for i := range round {
		respBytes += float64(res[i].bytes)
		if round[i].kind == opWrite {
			writeSecs += res[i].latency.Seconds()
			records += float64(len(round[i].mut.Insert) + len(round[i].mut.Delete))
		}
	}
	m["server.resp_bytes_per_op"] = respBytes / ops
	m["server.publish_ms"] = tot[spanPublish].meanMs()
	m["resilience.gate_us"] = tot[spanGate].perUnitUs()
	m["resilience.shed_total"] = after["sdbd_admission_shed_total"]
	m["resilience.degraded_total"] = after["sdbd_admission_degraded_total"]
	m["sdb.plan_ms"] = tot[spanPlan].meanMs()
	m["sdb.exec_ms"] = tot[spanExec].meanMs()
	m["sdb.exec_self_ms"] = tot[spanExec].selfMeanMs()
	m["sdb.rows_per_op"] = delta("sdb_exec_rows_total") / ops
	m["sdb.plan_est_rel_error_p50"] = median(rp.relErrs)
	m["histogram.gh_build_ms"] = tot[spanGHBuild].dur.Seconds() * 1e3
	m["histogram.gh_estimate_us"] = tot[spanGHEstimate].perUnitUs()
	for _, name := range rp.cat.Names() {
		if t, err := rp.cat.Table(name); err == nil {
			m["histogram.gh_bytes"] += float64(t.Stats.SizeBytes())
		}
	}
	m["histogram.gh_incr_us_per_record"] = tot[spanGHIncr].perUnitUs()
	m["histogram.ph_estimate_ms"] = tot[estimatorSpan["ph"]].meanMs()
	m["histogram.basicgh_estimate_ms"] = tot[estimatorSpan["basicgh"]].meanMs()
	if join := tot[spanPacked].perUnitUs(); join > 0 {
		m["histogram.gh_est_to_join_ratio"] = tot[spanGHEstimate].perUnitUs() / join
	}
	m["sample.rs_estimate_ms"] = tot[estimatorSpan["rs"]].meanMs()
	m["sample.ss_estimate_ms"] = tot[estimatorSpan["ss"]].meanMs()
	m["rtree.bulkload_ms"] = tot[spanBulkLoad].dur.Seconds() * 1e3
	m["rtree.pack_ms"] = tot[spanPack].dur.Seconds() * 1e3
	m["rtree.packed_join_ms"] = tot[spanPacked].meanMs()
	m["rtree.packed_join_par_ms"] = tot[spanPackedPar].meanMs()
	m["rtree.pointer_join_ms"] = tot[spanPointer].meanMs()
	m["rtree.search_us"] = tot[spanSearch].perUnitUs()
	visits := delta("rtree_packed_node_visits_total") + delta("rtree_join_node_visits_total")
	m["rtree.node_visits_per_op"] = visits / ops
	if pairs := delta("rtree_packed_output_pairs_total") + delta("rtree_join_output_pairs_total"); pairs > 0 {
		m["rtree.leaf_compares_per_pair"] = (delta("rtree_packed_leaf_compares_total") + delta("rtree_join_leaf_compares_total")) / pairs
	}
	m["ingest.apply_ms"] = tot[spanApply].meanMs()
	m["ingest.apply_self_ms"] = tot[spanApply].selfMeanMs()
	m["ingest.wal_fsync_us"] = tot[spanFsync].perUnitUs()
	if n := tot[spanApply].spans; n > 0 {
		m["ingest.fsyncs_per_batch"] = float64(tot[spanFsync].spans) / float64(n)
	}
	if records > 0 {
		m["ingest.wal_bytes_per_record"] = float64(rp.walGrowth()) / records
		m["ingest.records_per_s"] = records / writeSecs
	}
	m["ingest.repack_ms"] = tot[spanRepack].meanMs()
	m["ingest.repacks_total"] = after["sdbd_ingest_repacks_total"]
	// Both ratios compare rounds run minutes apart at most, each at its own
	// slowdown, so that a neighbour's burst in one of them is not read as
	// overhead.
	var walls []float64
	for _, b := range baseline {
		walls = append(walls, b.seconds())
	}
	if base := median(walls); base > 0 {
		m["trace.overhead_ratio"] = st.seconds() / base
	}
	if e.w.telemetryOff {
		off, err := telemetryOffRound(ctx, e, round)
		if err != nil {
			return nil, err
		}
		m["telemetry.overhead_ratio"] = st.seconds() / off.seconds()
	}

	// Every request's replayed children must fit inside it, up to noise:
	// a request whose layers replay slower than the request ran means the
	// replay is not measuring what the server did.
	if self := tot[spanRequest].self; self < -tot[spanRequest].dur/4 {
		return nil, fmt.Errorf("replayed layers exceed the requests by %v of %v", -self, tot[spanRequest].dur)
	}
	if cfg.traceOut != "" {
		if err := dumpSpans(cfg.traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (e *env) cat() *sdb.Catalog { return e.srv.Store().Snapshot().Catalog }

func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func newReplayer(ctx context.Context, e *env, tr *tracer) (*replayer, error) {
	level := e.srv.Store().Level()
	gh, err := histogram.NewGH(level)
	if err != nil {
		return nil, err
	}
	rp := &replayer{ctx: ctx, e: e, tr: tr, level: level, gh: gh,
		gate: resilience.NewController(e.srv.Admission().Policy())}
	if e.w.live == "" {
		return rp, nil
	}
	// Open the shadow front before the round runs, so its ids and live set
	// line up with the server's when the round's writes are replayed.
	if rp.base, err = e.cat().Table(e.w.live); err != nil {
		return nil, err
	}
	scratch, err := server.NewStore(level)
	if err != nil {
		return nil, err
	}
	publish := func(t *sdb.Table) (uint64, error) {
		id := tr.begin(spanPublish, rp.curOp, rp.curApply)
		defer tr.end(id)
		return scratch.Publish(t)
	}
	dir := filepath.Join(filepath.Dir(e.walDir), "shadow")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, e.w.live+".wal")
	if rp.shadow, err = ingest.OpenTable(rp.base, level, walPath, publish); err != nil {
		return nil, err
	}
	rp.shadow.SetFsyncObserver(func(d time.Duration) { tr.observed(spanFsync, rp.curOp, rp.curApply, d) })
	rp.walBase = rp.walSize()
	if rp.builder, err = histogram.GHBuilderFrom(rp.base.Data, level); err != nil {
		return nil, err
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.shadow != nil {
		rp.shadow.Close()
	}
}

// walSize is the shadow WAL's current size; its growth over the replay, less
// the opening checkpoint measured in newReplayer, is what the round's records
// cost on disk.
func (rp *replayer) walSize() int64 {
	fi, err := os.Stat(rp.shadow.WALPath())
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (rp *replayer) walGrowth() int64 {
	if rp.shadow == nil {
		return 0
	}
	return rp.walSize() - rp.walBase
}

// replayOp replays op i beneath its request span.
func (rp *replayer) replayOp(i, parent int, o *op, res opResult) error {
	rp.curOp = i
	switch o.kind {
	case opQuery:
		return rp.query(i, parent, o, res)
	case opEstMulti:
		_, err := rp.plan(i, parent, o)
		return err
	case opExplain:
		plan, err := rp.plan(i, parent, o)
		if err != nil {
			return err
		}
		_, err = rp.joinIO(i, parent, plan)
		return err
	case opEstPair:
		return rp.estimate(i, parent, o)
	case opWrite:
		return rp.write(i, parent, o)
	}
	return nil
}

func (rp *replayer) plan(i, parent int, o *op) (*sdb.Plan, error) {
	id := rp.tr.begin(spanPlan, i, parent)
	plan, err := rp.cat.Plan(toQuery(o.q))
	rp.tr.end(id)
	return plan, err
}

// joinIO is the analytic I/O prediction the admission gate and /v1/explain
// both price a plan's first join with; it walks both trees' level statistics.
func (rp *replayer) joinIO(i, parent int, plan *sdb.Plan) (float64, error) {
	id := rp.tr.begin(spanJoinIO, i, parent)
	defer rp.tr.end(id)
	base, err := rp.cat.Table(plan.Base)
	if err != nil {
		return 0, err
	}
	first, err := rp.cat.Table(plan.Steps[0].Table)
	if err != nil {
		return 0, err
	}
	return iomodel.JoinAccesses(base.Index.LevelStats(), first.Index.LevelStats()), nil
}

func (rp *replayer) query(i, parent int, o *op, res opResult) error {
	plan, err := rp.plan(i, parent, o)
	if err != nil {
		return err
	}
	estRows := plan.Steps[len(plan.Steps)-1].EstRows

	// The gate as handleQuery runs it: a slot, the cost in units (estimated
	// rows plus modeled index accesses), the price, the release.
	gate := rp.tr.begin(spanGate, i, parent)
	if !rp.gate.TryAcquire() {
		return fmt.Errorf("replay gate refused a slot")
	}
	io, err := rp.joinIO(i, gate, plan)
	if err != nil {
		return err
	}
	rp.gate.PredictCost(estRows + io)
	rp.gate.ReleaseDone(res.latency, estRows+io, false)
	rp.tr.end(gate)

	exec := rp.tr.begin(spanExec, i, parent)
	plan.Workers = 0
	out, err := plan.ExecuteContext(rp.ctx)
	rp.tr.end(exec)
	if err != nil {
		return err
	}
	if rows := float64(out.Len()); rows > 0 {
		d := estRows - rows
		if d < 0 {
			d = -d
		}
		rp.relErrs = append(rp.relErrs, d/rows)
	}

	base, err := rp.cat.Table(plan.Base)
	if err != nil {
		return err
	}
	first, err := rp.cat.Table(plan.Steps[0].Table)
	if err != nil {
		return err
	}
	kernel := rp.tr.begin(spanKernel, i, exec)
	pairs := 0
	err = rtree.PackedJoinFuncParallelContext(rp.ctx, base.Packed, first.Packed, runtime.GOMAXPROCS(0), func(int, int) { pairs++ })
	rp.tr.end(kernel)
	if err != nil {
		return err
	}
	return rp.probes(i, plan, out)
}

// maxProbes bounds the index probes replayed per extension step.
const maxProbes = 256

// probes times the extension steps' index probes on their own: for each step
// after the first join, the step table's index is searched with the
// connecting item of up to maxProbes result rows.
func (rp *replayer) probes(i int, plan *sdb.Plan, out *sdb.Result) error {
	col := map[string]int{}
	for c, name := range out.Columns {
		col[name] = c
	}
	var buf []int
	for _, s := range plan.Steps[1:] {
		tab, err := rp.cat.Table(s.Table)
		if err != nil {
			return err
		}
		other := s.Against[0].Left
		if other == s.Table {
			other = s.Against[0].Right
		}
		from, err := rp.cat.Table(other)
		if err != nil {
			return err
		}
		n := len(out.Rows)
		if n > maxProbes {
			n = maxProbes
		}
		if n == 0 {
			continue
		}
		id := rp.tr.begin(spanSearch, i, -1)
		for _, row := range out.Rows[:n] {
			buf = tab.Index.Search(from.Data.Items[row[col[other]]], buf[:0])
		}
		rp.tr.end(id)
		rp.tr.spans[id].Units = n
	}
	return nil
}

func (rp *replayer) estimate(i, parent int, o *op) error {
	k := sortedPair(o.est.Left, o.est.Right)
	a, err := rp.cat.Table(k[0])
	if err != nil {
		return err
	}
	b, err := rp.cat.Table(k[1])
	if err != nil {
		return err
	}
	name, built := estimatorSpan[o.est.Method]
	switch {
	case o.est.Method == "gh" && rp.e.w.live != "":
		// A write just bumped the generation, so the server missed its cache
		// and computed this.
		id := rp.tr.begin(spanGHEstimate, i, parent)
		_, err = rp.gh.Estimate(a.Stats, b.Stats)
		rp.tr.end(id)
	case built && (o.est.Method == "rs" || o.est.Method == "ss"):
		// Sampling ops carry a fresh fraction each, so the server built both
		// samples; gh, ph and basicgh were cache hits with nothing beneath.
		t, terr := technique(o.est.Method, o.est.Fraction, rp.level)
		if terr != nil {
			return terr
		}
		id := rp.tr.begin(name, i, parent)
		_, err = buildEstimate(t, a, b)
		rp.tr.end(id)
	}
	return err
}

// rectByID resolves a live-table id against the shadow's starting snapshot
// and the rectangles this round's earlier writes inserted.
func (rp *replayer) rectByID(id int) geom.Rect {
	if n := rp.base.Data.Len(); id >= n {
		return rp.inserted[id-n]
	}
	return rp.base.Data.Items[id]
}

func (rp *replayer) write(i, parent int, o *op) error {
	m := ingest.Mutation{Deletes: o.mut.Delete}
	for _, r := range o.mut.Insert {
		m.Inserts = append(m.Inserts, rectOf(r))
	}
	rp.curApply = rp.tr.begin(spanApply, i, parent)
	_, err := rp.shadow.Apply(m)
	rp.tr.end(rp.curApply)
	if err != nil {
		return err
	}

	// The statistics maintenance inside Apply, on its own.
	id := rp.tr.begin(spanGHIncr, i, -1)
	for _, r := range m.Inserts {
		if err := rp.builder.Add(r); err != nil {
			return err
		}
	}
	rp.inserted = append(rp.inserted, m.Inserts...)
	for _, del := range m.Deletes {
		if err := rp.builder.Remove(rp.rectByID(del)); err != nil {
			return err
		}
	}
	rp.tr.end(id)
	rp.tr.spans[id].Units = m.Records()
	return nil
}

// standalone measures what no single op shows: the set-up builds per table,
// the three join kernels and the GH estimate per touched pair, the
// build-based estimators the cache hides, and one re-pack of the live table.
func (rp *replayer) standalone(round []op) error {
	tr := rp.tr
	for _, name := range rp.cat.Names() {
		d := rp.e.data[name]
		if d == nil {
			continue
		}
		nd := d.Normalize()
		id := tr.begin(spanBulkLoad, -1, -1)
		index, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(nd.Items))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(spanPack, -1, -1)
		rtree.Pack(index)
		tr.end(id)
		// The build sdb.Catalog.BuildTable picks: parallel from 100k items.
		id = tr.begin(spanGHBuild, -1, -1)
		if nd.Len() >= 100_000 && rp.level >= 6 {
			_, err = histogram.BuildGHParallel(nd, rp.level, 0)
		} else {
			_, err = rp.gh.Build(nd)
		}
		tr.end(id)
		if err != nil {
			return err
		}
	}

	count := func(int, int) {}
	methods := map[string]bool{}
	for i := range round {
		if round[i].kind == opEstPair {
			methods[round[i].est.Method] = true
		}
	}
	for _, p := range touchedPairs([][]op{round}) {
		a, err := rp.cat.Table(p[0])
		if err != nil {
			return err
		}
		b, err := rp.cat.Table(p[1])
		if err != nil {
			return err
		}
		id := tr.begin(spanPacked, -1, -1)
		err = rtree.PackedJoinFuncContext(rp.ctx, a.Packed, b.Packed, count)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(spanPackedPar, -1, -1)
		err = rtree.PackedJoinFuncParallelContext(rp.ctx, a.Packed, b.Packed, runtime.GOMAXPROCS(0), count)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(spanPointer, -1, -1)
		err = rtree.JoinFuncContext(rp.ctx, a.Index, b.Index, count)
		tr.end(id)
		if err != nil {
			return err
		}
		const ghReps = 5
		id = tr.begin(spanGHEstimate, -1, -1)
		for r := 0; r < ghReps; r++ {
			if _, err := rp.gh.Estimate(a.Stats, b.Stats); err != nil {
				return err
			}
		}
		tr.end(id)
		tr.spans[id].Units = ghReps
		for _, method := range []string{"ph", "basicgh"} {
			if !methods[method] {
				continue
			}
			t, err := technique(method, 0, rp.level)
			if err != nil {
				return err
			}
			id = tr.begin(estimatorSpan[method], -1, -1)
			_, err = buildEstimate(t, a, b)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	if rp.shadow != nil {
		id := tr.begin(spanRepack, -1, -1)
		_, err := rp.shadow.Repack()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// telemetryOffRound runs the round against a second server that differs only
// in EnableTelemetry, serving the same table snapshots.
func telemetryOffRound(ctx context.Context, e *env, round []op) (roundStat, error) {
	srv, err := server.New(serverConfig("", false))
	if err != nil {
		return roundStat{}, err
	}
	cat := e.cat()
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			return roundStat{}, err
		}
		if _, err := srv.Store().Publish(t); err != nil {
			return roundStat{}, err
		}
	}
	off := &env{w: e.w, srv: srv, h: srv.Handler(), gen: e.gen, resp: respWriter{hdr: http.Header{}}, yard: e.yard}
	touch := e.gen.touch()
	for i := range touch {
		if r := off.do(ctx, &touch[i]); r.status != http.StatusOK {
			return roundStat{}, fmt.Errorf("telemetry-off server: %s: status %d", touch[i].class, r.status)
		}
	}
	res := make([]opResult, len(round))
	st := off.runRound(ctx, round, res, nil)
	for i := range res {
		if res[i].status != http.StatusOK {
			return roundStat{}, fmt.Errorf("telemetry-off server: %s: status %d", round[i].class, res[i].status)
		}
	}
	return st, nil
}
