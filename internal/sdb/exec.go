package sdb

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
	"spatialsel/internal/rtree"
)

// Engine-level executor counters.
var (
	mExecQueries = obs.Default.Counter("sdb_exec_queries_total",
		"Plans executed.")
	mExecRows = obs.Default.Counter("sdb_exec_rows_total",
		"Result rows materialized by the executor, summed over operators.")
	mExecProbeRows = obs.Default.Counter("sdb_exec_probe_rows_total",
		"Index probes issued by extension steps.")
)

// RelError is the paper's estimation error |est − actual| / actual; an
// actual of zero reports the estimate itself (the error against 1), keeping
// the value finite for empty joins. It is the one definition: the operator
// spans of EXPLAIN ANALYZE and the server's per-request record both write it.
func RelError(est, actual float64) float64 {
	den := actual
	if den <= 0 {
		den = 1
	}
	e := est - actual
	if e < 0 {
		e = -e
	}
	return e / den
}

// annotateOperator stamps an operator span with its cardinalities: the
// planner's estimate, the observed row count, and the resulting relative
// error — the per-operator numbers EXPLAIN ANALYZE reports.
func annotateOperator(sp *obs.Span, estRows float64, rows int) {
	if sp == nil {
		return
	}
	sp.Set("est_rows", estRows)
	sp.Set("rows", float64(rows))
	sp.Set("rel_error", RelError(estRows, float64(rows)))
}

// Result is a materialized join result: one column of item indices per
// table, in Columns order; Rows[i][j] indexes into the Columns[j] table's
// Data.Items.
type Result struct {
	Columns []string
	Rows    [][]int
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// Execute runs the plan, against the tables it was planned on, and
// materializes the result. The first join is a sweep of the two packed images'
// tile runs; every subsequent table is joined in by probing its packed image —
// the same runs, in the few tiles the rectangle meets — with the rectangle of
// each row's connecting item, verifying any additional predicates directly.
func (p *Plan) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// cancelRowBatch is how many probe rows the executor processes between
// context polls in the extension steps.
const cancelRowBatch = 256

// Crossover sizes below which the auto (Workers == 0) executor stays serial:
// goroutine + merge overhead beats the win on small inputs (bench/ reports
// the serial and pooled kernels as rtree.packed_join_ms and
// rtree.packed_join_par_ms). The first join's was re-measured for the tile
// sweep (rtree's BenchmarkPackedJoinCrossover, EXPERIMENTS.md "Tile sweep"):
// a pool of two costs 20–50 µs to start and collect, which an unwindowed
// SCRC ⋈ SURA earns back from 16 384 items on and a windowed one by 32 768.
// The extension steps' was re-measured on the tile probe and kept
// (BenchmarkProbeStepCrossover, EXPERIMENTS.md "Tile probes"): a row costs
// 110–125 ns to extend, the same pool is a loss at 512 rows (+60 %), a wash at
// 1 024 and ahead in every run from 2 048 on (−15 %, −22 % at 4 096); raised to
// 4 096, multiway-window lost 3 % ops/s in 7 of 8 pairs.
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
// tasks) and polled per row batch during the index-probe steps, so a cancelled
// or timed-out context aborts a large join promptly with the context's error.
//
// Rows are carved from slabs, never allocated one by one: a two-table result's
// are the kernel's batches themselves, a longer query's first join's come out
// of one slab sized from them, each extension step's out of per-goroutine
// arenas. Every row is a full-capacity slice, so appending to one reallocates
// it instead of running into its neighbour.
//
// Row order is a function of the plan, the tables' images and the windows:
// the kernel's task list and the probe steps' chunk order do not depend on
// Workers, so a pooled and a serial execution of one plan over one snapshot
// return the same rows at the same positions.
func (p *Plan) ExecuteContext(ctx context.Context) (*Result, error) {
	q := p.query
	mExecQueries.Inc()

	// When the caller installed a trace (EXPLAIN ANALYZE), every operator
	// below records into a child span; otherwise the spans are nil and free.
	ctx, execSp := obs.StartSpan(ctx, "execute")
	defer execSp.End()

	// window returns the query's window on a table, nil when it sets none.
	window := func(table string) *geom.Rect {
		if w, ok := q.Windows[table]; ok {
			return &w
		}
		return nil
	}

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
	// tables' windows itself and hands back pair batches, which the join's
	// pool turns into rows.
	first := p.Steps[0]
	baseTab, stepTab := p.tables[p.Base], p.tables[first.Table]
	jctx, joinSp := obs.StartSpan(ctx, "join "+p.Base+" ⋈ "+first.Table)
	joinWorkers := resolveWorkers(p.Workers, baseTab.Len()+stepTab.Len(), parallelJoinMinItems)
	batches, jerr := rtree.PackedJoinBatches(jctx, baseTab.Packed, stepTab.Packed, joinWorkers,
		window(p.Base), window(first.Table))
	var rows [][]int
	if jerr == nil {
		rows = rowsFromBatches(batches, k, joinWorkers)
	}
	annotateOperator(joinSp, first.EstRows, len(rows))
	joinSp.End()
	mExecRows.Add(uint64(len(rows)))
	if jerr != nil {
		return nil, jerr
	}

	// Extension steps: index probes per row, sharded across a worker pool
	// when the intermediate result is large enough.
	for _, s := range p.Steps[1:] {
		tab := p.tables[s.Table]
		win := window(s.Table)
		_, stepSp := obs.StartSpan(ctx, "probe "+s.Table)
		col := colOf[s.Table]

		// The step's predicates, each resolved once to the joined column and
		// table whose item a candidate must intersect. The first drives the
		// index probe; the others are verified directly.
		against := make([]joinedSide, len(s.Against))
		for i, pred := range s.Against {
			other := pred.Left
			if other == s.Table {
				other = pred.Right
			}
			against[i] = joinedSide{col: colOf[other], items: p.tables[other].Data.Items}
		}

		// extendRow probes the step's packed image with one row's connecting
		// item and appends every verified extension to dst, carving the new
		// rows from the caller's arena. Each goroutine owns its scratch, so
		// the shared image is only ever read.
		extendRow := func(row []int, sc *probeScratch, dst [][]int) [][]int {
			sc.probe = tab.Packed.Search(against[0].rect(row), sc.probe[:0])
		candidates:
			for _, cand := range sc.probe {
				if win != nil && !tab.Data.Items[cand].Intersects(*win) {
					continue
				}
				for _, side := range against[1:] {
					if !tab.Data.Items[cand].Intersects(side.rect(row)) {
						continue candidates
					}
				}
				out := sc.newRow(k)
				copy(out, row)
				out[col] = cand
				dst = append(dst, out)
			}
			return dst
		}

		var next [][]int
		probes := len(rows)
		if w := resolveWorkers(p.Workers, len(rows), parallelProbeMinRows); w > 1 {
			var err error
			if next, err = probeRowsParallel(ctx, rows, w, extendRow); err != nil {
				return nil, err
			}
		} else {
			var sc probeScratch
			for ri, row := range rows {
				if ri%cancelRowBatch == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				next = extendRow(row, &sc, next)
			}
		}
		rows = next
		annotateOperator(stepSp, s.EstRows, len(rows))
		stepSp.Set("probe_rows", float64(probes))
		stepSp.End()
		mExecRows.Add(uint64(len(rows)))
		mExecProbeRows.Add(uint64(probes))
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// rowsFromBatches materializes the first join: one k-wide row per pair, in
// batch order. With two tables a row is its pair where the kernel wrote it —
// the batches are the result's slab, and only the row headers are new; with
// more, rows are carved from one slab sized from the batch lengths, the pair in
// columns 0 and 1 and -1 in the columns later steps fill. Either way the
// batches are filled in by a pool of workers, each batch's rows landing at the
// positions the batches before it leave.
func rowsFromBatches(batches [][]int, k, workers int) [][]int {
	starts := make([]int, len(batches)+1)
	for i, batch := range batches {
		starts[i+1] = starts[i] + len(batch)/2
	}
	rows := make([][]int, starts[len(batches)])
	var slab []int
	if k > 2 {
		slab = make([]int, len(rows)*k)
	}
	var cursor atomic.Int64
	fill := func() {
		for {
			bi := int(cursor.Add(1) - 1)
			if bi >= len(batches) {
				return
			}
			batch, out := batches[bi], rows[starts[bi]:starts[bi+1]]
			if k == 2 {
				for i := range out {
					out[i] = batch[2*i : 2*i+2 : 2*i+2]
				}
				continue
			}
			rowSlab := slab[starts[bi]*k : starts[bi+1]*k]
			for i := range out {
				row := rowSlab[i*k : (i+1)*k : (i+1)*k]
				row[0], row[1] = batch[2*i], batch[2*i+1]
				for c := 2; c < k; c++ {
					row[c] = -1
				}
				out[i] = row
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	return rows
}

// joinedSide is one side of an extension step's predicate that is already in
// the row: the column holding its item id and the table's items.
type joinedSide struct {
	col   int
	items []geom.Rect
}

func (j joinedSide) rect(row []int) geom.Rect { return j.items[row[j.col]] }

// arenaChunkRows is how many rows one arena chunk holds: large enough that a
// step's allocations count chunks, not rows; small enough that the unused
// tail of each goroutine's last chunk stays a few tens of kilobytes.
const arenaChunkRows = 1024

// probeScratch is what one goroutine reuses across the rows it extends: the
// index-probe buffer and the arena chunk its output rows are carved from.
type probeScratch struct {
	probe []int
	arena []int
}

// newRow carves a k-wide, full-capacity row from the arena, starting a fresh
// chunk when the current one is used up. Chunks are never reused: the rows
// carved from them belong to the result.
func (sc *probeScratch) newRow(k int) []int {
	if len(sc.arena) < k {
		sc.arena = make([]int, arenaChunkRows*k)
	}
	row := sc.arena[:k:k]
	sc.arena = sc.arena[k:]
	return row
}

// probeRowsParallel runs extendRow over every row using w workers. Rows are
// split into contiguous chunks claimed through an atomic cursor; each worker
// extends its chunk into a private buffer, and the chunk buffers are
// concatenated in chunk order, so the output is the rows' extensions in row
// order — what the serial loop produces, whatever w is. The context is polled
// per row batch inside every chunk; a done context aborts the pool with the
// context's error.
func probeRowsParallel(ctx context.Context, rows [][]int, w int,
	extendRow func(row []int, sc *probeScratch, dst [][]int) [][]int) ([][]int, error) {
	chunk := (len(rows) + w*4 - 1) / (w * 4) // ~4 chunks per worker for balance
	if chunk < cancelRowBatch {
		chunk = cancelRowBatch
	}
	nChunks := (len(rows) + chunk - 1) / chunk
	res := make([][][]int, nChunks)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc probeScratch
			for {
				ci := cursor.Add(1) - 1
				if ci >= int64(nChunks) {
					return
				}
				lo := int(ci) * chunk
				hi := lo + chunk
				if hi > len(rows) {
					hi = len(rows)
				}
				var out [][]int
				for ri := lo; ri < hi; ri++ {
					if (ri-lo)%cancelRowBatch == 0 && ctx.Err() != nil {
						return
					}
					out = extendRow(rows[ri], &sc, out)
				}
				res[ci] = out
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, chunkRows := range res {
		total += len(chunkRows)
	}
	out := make([][]int, 0, total)
	for _, chunkRows := range res {
		out = append(out, chunkRows...)
	}
	return out, nil
}

// Count plans and executes in one call, returning only the result
// cardinality — the number selectivity estimation approximates.
func (c *Catalog) Count(q Query) (int, error) {
	plan, err := c.Plan(q)
	if err != nil {
		return 0, err
	}
	res, err := plan.Execute()
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}
