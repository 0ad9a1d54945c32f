package sdb

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"spatialsel/internal/core"
	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
	"spatialsel/internal/rtree"
)

// Engine-level executor counters.
var (
	mExecQueries = obs.Default.Counter("sdb_exec_queries_total",
		"Plans executed.")
	mExecRows = obs.Default.Counter("sdb_exec_rows_total",
		"Result rows produced (counted for a two-table plan), summed over operators.")
)

// annotateOperator stamps an operator span with its cardinalities: the
// planner's estimate, the observed row count, and the resulting relative
// error — the per-operator numbers EXPLAIN ANALYZE reports.
func annotateOperator(sp *obs.Span, estRows float64, rows int) {
	if sp == nil {
		return
	}
	sp.Set("est_rows", estRows)
	sp.Set("rows", float64(rows))
	sp.Set("rel_error", core.RelError(estRows, float64(rows)))
}

// Result is a join result: one column of item indices per table, in Columns
// order; a row's j-th id indexes into the Columns[j] table's Data.Items. Its
// rows are read through Page.
type Result struct {
	Columns []string
	// Rows holds a multi-table result's rows, materialized. It is nil for a
	// two-table result, which is counted and sweeps each page from its join;
	// only bench/'s replay of multi-way plans reads it.
	Rows [][]int
	// pairs is a two-table result's counted join.
	pairs *rtree.CountedJoin
}

// Len returns the number of result rows.
func (r *Result) Len() int {
	if r.pairs != nil {
		return r.pairs.Len()
	}
	return len(r.Rows)
}

// Page returns rows [offset, offset+limit) of the result, clipped to its end:
// past it, an empty and non-nil slice. A two-table result sweeps them out of
// its join under a "page" span, the pairs before offset skipped by count, so
// a page costs memory for its own rows whatever the result's size; the
// context stops that sweep. Every row is a full-capacity slice, and a
// multi-table result's alias its Rows.
func (r *Result) Page(ctx context.Context, offset, limit int) ([][]int, error) {
	if r.pairs == nil {
		offset = min(max(offset, 0), len(r.Rows))
		return r.Rows[offset : offset+min(max(limit, 0), len(r.Rows)-offset)], nil
	}
	ctx, sp := obs.StartSpan(ctx, "page")
	defer sp.End()
	pairs, err := r.pairs.Page(ctx, offset, limit)
	if err != nil {
		return nil, err
	}
	rows := make([][]int, len(pairs)/2)
	for i := range rows {
		rows[i] = pairs[2*i : 2*i+2 : 2*i+2]
	}
	sp.Set("rows", float64(len(rows)))
	return rows, nil
}

// Execute runs the plan, against the tables it was planned on: it counts a
// two-table result and materializes a longer one. The first join is a sweep
// of the two packed images' tile runs; every subsequent table is joined in by
// probing its packed image — the same runs, in the few tiles the rectangle
// meets — with the rectangle of each row's connecting item, verifying any
// additional predicates directly.
func (p *Plan) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// cancelRowBatch is the most input rows one piece of an extension step holds;
// the context is polled once per piece.
const cancelRowBatch = 256

// Crossover sizes below which the auto (Workers == 0) executor stays serial:
// goroutine + merge overhead beats the win on small inputs (bench/ reports
// the serial and pooled kernels as rtree.packed_join_ms and
// rtree.packed_join_par_ms). The first join's was re-measured for the tile
// sweep (rtree's BenchmarkPackedJoinCrossover, EXPERIMENTS.md "Tile sweep"):
// a pool of two costs 20–50 µs to start and collect, which an unwindowed
// SCRC ⋈ SURA earns back from 16 384 items on and a windowed one by 32 768.
// The extension steps' was re-measured on the tile probe and kept
// (BenchmarkProbeStepCrossover, EXPERIMENTS.md "Tile probes"): the same pool
// was a loss at 512 rows (+60 %), a wash at 1 024 and ahead in every run from
// 2 048 on; raised to 4 096, multiway-window lost 3 % ops/s in 7 of 8 pairs.
// With the probe memo a row costs less (at 33 290 rows 136 ns serially against
// 231 ns per-row probing, one busy 2-core series), and the crossover did not
// move: the pool loses at 500 rows (+20 %), is inside the noise at 1 001 and
// ahead from 2 053 on (−25 %, −24 % at 4 173; EXPERIMENTS.md "A probe per
// connecting item").
const (
	parallelJoinMinItems = 16384 // summed table cardinalities, first join
	parallelProbeMinRows = 2048  // intermediate rows, extension steps
)

// resolveWorkers maps the plan's Workers knob onto an effective pool size for
// a work item of the given size. Explicit values are honored (1 = serial);
// auto (≤ 0) selects GOMAXPROCS above the crossover and serial below it.
func resolveWorkers(workers, size, crossover int) int {
	if workers == 1 {
		return 1
	}
	if workers > 1 {
		return workers
	}
	if size < crossover {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ExecuteContext is Execute with cancellation: the context is threaded into
// the first join's sweep (polled per batch of swept tiles and between its
// tasks), polled per piece of rows during the index-probe steps and per
// segment while the result's rows are laid out, so a cancelled or timed-out
// context aborts a large join promptly with the context's error.
//
// A two-table result is the first join counted, task by task, and none of its
// rows is made here: Page sweeps the ones it returns. A longer query's rows
// are carved from slabs, never allocated one by one. Between steps they are
// runs in slabs, never given headers: the first extension step reads the
// kernel's pairs in place, and each step writes its k-wide rows back to back
// into per-goroutine arena chunks, handing the next step the list of segments
// it wrote. The headers of Result.Rows are made once, at the end. Every row is
// a full-capacity slice, so appending to one reallocates it instead of running
// into its neighbour.
//
// Row order is a function of the plan, the tables' images and the windows:
// the kernel's task list and the probe steps' pieces do not depend on Workers,
// so a pooled and a serial execution of one plan over one snapshot return the
// same rows at the same positions.
func (p *Plan) ExecuteContext(ctx context.Context) (*Result, error) {
	mExecQueries.Inc()

	// When the caller installed a trace (EXPLAIN ANALYZE), every operator
	// below records into a child span; otherwise the spans are nil and free.
	ctx, execSp := obs.StartSpan(ctx, "execute")
	defer execSp.End()

	// Column layout: base table first, then each step's table.
	cols := []string{p.Base}
	colOf := map[string]int{p.Base: 0}
	for _, s := range p.Steps {
		colOf[s.Table] = len(cols)
		cols = append(cols, s.Table)
	}
	k := len(cols)

	// First join: the tile sweep of the two packed images; every catalogued
	// table carries one (Catalog.Attach enforces it). The kernel applies both
	// tables' windows itself. A two-table result is the join counted; a longer
	// query's first extension step reads the join's pair batches.
	first := p.Steps[0]
	baseTab, stepTab := p.tables[p.Base], p.tables[first.Table]
	jctx, joinSp := obs.StartSpan(ctx, "join "+p.Base+" ⋈ "+first.Table)
	joinWorkers := resolveWorkers(p.Workers, baseTab.Len()+stepTab.Len(), parallelJoinMinItems)
	winBase, winFirst := p.window(p.Base), p.window(first.Table)
	var pairs *rtree.CountedJoin
	var batches [][]int
	var jerr error
	n := 0
	if k == 2 {
		if pairs, jerr = rtree.CountPackedJoin(jctx, baseTab.Packed, stepTab.Packed, joinWorkers, winBase, winFirst); jerr == nil {
			n = pairs.Len()
		}
	} else {
		batches, jerr = rtree.PackedJoinBatches(jctx, baseTab.Packed, stepTab.Packed, joinWorkers, winBase, winFirst)
		for _, batch := range batches {
			n += len(batch) / 2
		}
	}
	annotateOperator(joinSp, first.EstRows, n)
	joinSp.End()
	mExecRows.Add(uint64(n))
	if jerr != nil {
		return nil, jerr
	}
	if k == 2 {
		return &Result{Columns: cols, pairs: pairs}, nil
	}

	// Extension steps: each probes the step's table with every row's
	// connecting item, sharded across a worker pool when the intermediate
	// result is large enough.
	segs, stride := batches, 2
	for _, s := range p.Steps[1:] {
		_, stepSp := obs.StartSpan(ctx, "probe "+s.Table)
		x := extension{tab: p.tables[s.Table], win: p.window(s.Table), col: colOf[s.Table], k: k}
		// The step's predicates, each resolved once to the joined column and
		// table whose item a candidate must intersect. The first drives the
		// index probe; the others are verified per row.
		x.against = make([]joinedSide, len(s.Against))
		for i, pred := range s.Against {
			other := pred.Left
			if other == s.Table {
				other = pred.Right
			}
			x.against[i] = joinedSide{col: colOf[other], items: p.tables[other].Data.Items}
		}
		probes := n
		var searches int
		var err error
		segs, n, searches, err = x.run(ctx, segs, stride, n, resolveWorkers(p.Workers, n, parallelProbeMinRows))
		stepSp.End()
		if err != nil {
			return nil, err
		}
		stride = k
		annotateOperator(stepSp, s.EstRows, n)
		stepSp.Set("probe_rows", float64(probes))
		stepSp.Set("probe_searches", float64(searches))
		mExecRows.Add(uint64(n))
	}

	// The result's row headers, made once and exactly sized.
	rows := make([][]int, 0, n)
	for _, seg := range segs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := 0; i < len(seg); i += k {
			rows = append(rows, seg[i:i+k:i+k])
		}
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// joinedSide is one side of an extension step's predicate that is already in
// the row: the column holding its item id and the table's items.
type joinedSide struct {
	col   int
	items []geom.Rect
}

func (j joinedSide) rect(row []int) geom.Rect { return j.items[row[j.col]] }

// extension is one extension step, resolved against the plan: the probed
// table and its window, the column it fills in k-wide rows, and its
// predicates' joined sides, against[0] the connecting item it probes with.
type extension struct {
	tab     *Table
	win     *geom.Rect
	col, k  int
	against []joinedSide
}

// arenaChunkRows is how many rows one arena chunk holds: large enough that a
// step's allocations count chunks, not rows; small enough that the unused
// tail of each goroutine's last chunk stays a few tens of kilobytes.
const arenaChunkRows = 1024

// piece is the unit of an extension step's work: input rows [lo, hi) of one
// segment, at most cancelRowBatch of them.
type piece struct{ seg, lo, hi int }

// pieceOut locates a piece's output: segments [lo, hi) of worker w's list.
type pieceOut struct{ w, lo, hi int }

// run extends n input rows, stored stride ints apiece back to back in segs,
// by the step's table on a pool of workers (one runs on the caller's
// goroutine). It returns the k-wide output rows as segments in input order —
// each piece's extensions after the previous piece's, whoever ran it — with
// their count and the Search calls made. The context is polled per piece; a
// done context stops the pool and returns the context's error.
func (x *extension) run(ctx context.Context, segs [][]int, stride, n, workers int) ([][]int, int, int, error) {
	pieces := make([]piece, 0, n/cancelRowBatch+len(segs))
	for si, seg := range segs {
		rows := len(seg) / stride
		for lo := 0; lo < rows; lo += cancelRowBatch {
			pieces = append(pieces, piece{si, lo, min(lo+cancelRowBatch, rows)})
		}
	}
	workers = max(1, min(workers, len(pieces)))
	probers := make([]prober, workers)
	// A worker meets at most the connecting table's items, and about its
	// share of the rows; past that its memo grows.
	hint := min((n+workers-1)/workers, len(x.against[0].items))
	done := make([]pieceOut, len(pieces))
	var cursor atomic.Int64
	work := func(w int) {
		pr := &probers[w]
		pr.memo = newProbeMemo(hint)
		for {
			pi := int(cursor.Add(1) - 1)
			if pi >= len(pieces) || ctx.Err() != nil {
				return
			}
			pc := pieces[pi]
			lo := len(pr.segs)
			x.extend(pr, segs[pc.seg][pc.lo*stride:pc.hi*stride], stride)
			done[pi] = pieceOut{w, lo, len(pr.segs)}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	nSegs, searches := 0, 0
	for _, pr := range probers {
		nSegs += len(pr.segs)
		searches += pr.memo.live // one entry per Search call
	}
	out, rows := make([][]int, 0, nSegs), 0
	for _, d := range done {
		for _, seg := range probers[d.w].segs[d.lo:d.hi] {
			out = append(out, seg)
			rows += len(seg) / x.k
		}
	}
	return out, rows, searches, nil
}

// prober is one worker's state in one extension step: its probe memo, the
// arena chunk it carves output rows from, and the segments it has written.
type prober struct {
	memo probeMemo
	// chunk is the arena chunk being filled: chunk[:used] is written, and
	// chunk[from:used] is the current piece's part, not yet in segs. Chunks
	// are never reused: the rows carved from them belong to the result.
	chunk      []int
	used, from int
	segs       [][]int
}

// extend appends the extensions of the rows in in (stride ints apiece) to the
// prober's arena, in row order and, within a row, in the order Search returns
// the candidates, then seals them as the piece's segments.
func (x *extension) extend(pr *prober, in []int, stride int) {
	conn := x.against[0]
	for i := 0; i < len(in); i += stride {
		row := in[i : i+stride]
	candidates:
		for _, cand := range pr.memo.candidates(x, row[conn.col]) {
			for _, side := range x.against[1:] {
				if !x.tab.Data.Items[cand].Intersects(side.rect(row)) {
					continue candidates
				}
			}
			if pr.used == len(pr.chunk) {
				pr.seal()
				pr.chunk = make([]int, arenaChunkRows*x.k)
				pr.used, pr.from = 0, 0
			}
			out := pr.chunk[pr.used : pr.used+x.k]
			pr.used += x.k
			copy(out, row)
			out[x.col] = cand
		}
	}
	pr.seal()
}

// seal appends the rows written since the last seal as one segment.
func (pr *prober) seal() {
	if pr.used > pr.from {
		pr.segs = append(pr.segs, pr.chunk[pr.from:pr.used:pr.used])
		pr.from = pr.used
	}
}

// candidates returns the connecting item's candidates: the step's table items
// its rectangle meets, in Search order, minus those outside the step's
// window. Only the first call for an id searches; the memo answers the rest.
// The slice is valid until the next call.
func (m *probeMemo) candidates(x *extension, id int) []int {
	s := m.slot(id)
	if s.key != 0 {
		return m.cands[s.off : s.off+int(s.n)]
	}
	start := len(m.cands)
	m.cands = x.tab.Packed.Search(x.against[0].items[id], m.cands)
	if x.win != nil {
		kept := start
		for _, cand := range m.cands[start:] {
			if x.tab.Data.Items[cand].Intersects(*x.win) {
				m.cands[kept] = cand
				kept++
			}
		}
		m.cands = m.cands[:kept]
	}
	*s = memoSlot{key: int32(id + 1), n: int32(len(m.cands) - start), off: start}
	m.added()
	return m.cands[start:]
}

// probeMemo maps a connecting item's id to its candidates, a run of cands: an
// open-addressed, linearly probed table kept at most half full. A Go map in
// its place made the serial step of BenchmarkProbeStepCrossover 20–45 %
// slower.
type probeMemo struct {
	slots []memoSlot
	shift uint // 64 - log2(len(slots))
	live  int
	cands []int
}

// memoSlot is one memo entry: key is the id plus one (0 marks an empty
// slot; an id fits, as 2³¹ items would be 64 GiB of rectangles), the
// candidates cands[off : off+n].
type memoSlot struct {
	key, n int32
	off    int
}

// newProbeMemo returns an empty memo sized for hint distinct ids.
func newProbeMemo(hint int) probeMemo {
	size := 16
	for size < 2*hint {
		size *= 2
	}
	return probeMemo{slots: make([]memoSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// slot returns id's slot, or the empty slot where id belongs.
func (m *probeMemo) slot(id int) *memoSlot {
	mask := uint64(len(m.slots) - 1)
	for h := (uint64(id) * 0x9E3779B97F4A7C15) >> m.shift; ; h = (h + 1) & mask {
		if s := &m.slots[h]; s.key == 0 || s.key == int32(id+1) {
			return s
		}
	}
}

// added counts an entry just filled in, doubling the table past half full.
func (m *probeMemo) added() {
	if m.live++; 2*m.live <= len(m.slots) {
		return
	}
	old := m.slots
	m.slots = make([]memoSlot, 2*len(old))
	m.shift--
	for _, s := range old {
		if s.key != 0 {
			*m.slot(int(s.key - 1)) = s
		}
	}
}
