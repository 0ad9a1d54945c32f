package sdb

import (
	"context"
	"fmt"
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

// relError is the paper's estimation error |est − actual| / actual; an
// actual of zero reports the estimate itself (the error against 1), keeping
// the value finite for empty joins.
func relError(est, actual float64) float64 {
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
	sp.Set("rel_error", relError(estRows, float64(rows)))
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

// Execute runs the plan and materializes the result. The first join runs as
// a synchronized R-tree join; every subsequent table is joined in by probing
// its R-tree with the rectangle of each row's connecting item, verifying any
// additional predicates directly.
func (p *Plan) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// cancelRowBatch is how many probe rows the executor processes between
// context polls in the extension steps.
const cancelRowBatch = 256

// Crossover sizes below which the auto (Workers == 0) executor stays serial:
// goroutine + merge overhead beats the win on small inputs (bench/ reports
// the serial and pooled kernels as rtree.packed_join_ms and
// rtree.packed_join_par_ms).
const (
	parallelJoinMinItems = 4096 // summed tree cardinalities, first join
	parallelProbeMinRows = 2048 // intermediate rows, extension steps
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
// the R-tree join (polled per node-visit batch) and polled per row batch
// during the index-probe steps, so a cancelled or timed-out context aborts a
// large join promptly with the context's error.
func (p *Plan) ExecuteContext(ctx context.Context) (*Result, error) {
	c := p.catalog
	q := p.query
	mExecQueries.Inc()

	// When the caller installed a trace (EXPLAIN ANALYZE), every operator
	// below records into a child span; otherwise the spans are nil and free.
	ctx, execSp := obs.StartSpan(ctx, "execute")
	defer execSp.End()

	// Per-table windows applied as row filters.
	passes := func(table string, id int) (bool, error) {
		w, ok := q.Windows[table]
		if !ok {
			return true, nil
		}
		t, err := c.Table(table)
		if err != nil {
			return false, err
		}
		return t.Data.Items[id].Intersects(w), nil
	}

	// Column layout: base table first, then each step's table.
	cols := []string{p.Base}
	colOf := map[string]int{p.Base: 0}
	for _, s := range p.Steps {
		colOf[s.Table] = len(cols)
		cols = append(cols, s.Table)
	}

	// First join via synchronized R-tree traversal.
	first := p.Steps[0]
	baseTab, err := c.Table(p.Base)
	if err != nil {
		return nil, err
	}
	stepTab, err := c.Table(first.Table)
	if err != nil {
		return nil, err
	}
	var rows [][]int
	var ferr error
	jctx, joinSp := obs.StartSpan(ctx, "join "+p.Base+" ⋈ "+first.Table)
	// A filter error inside the emit callback must not let the traversal run
	// to completion: cancelling the join context aborts it at the next poll,
	// and ferr (checked before jerr) carries the real cause out.
	jctx, jcancel := context.WithCancel(jctx)
	defer jcancel()
	joinWorkers := resolveWorkers(p.Workers, baseTab.Len()+stepTab.Len(), parallelJoinMinItems)
	// Every catalogued table carries the packed image of its index
	// (Catalog.Attach enforces it), so the packed kernel is the only first join.
	jerr := rtree.PackedJoinFuncParallelContext(jctx, baseTab.Packed, stepTab.Packed, joinWorkers, func(a, b int) {
		if ferr != nil {
			return
		}
		okA, err := passes(p.Base, a)
		if err != nil {
			ferr = err
			jcancel()
			return
		}
		okB, err := passes(first.Table, b)
		if err != nil {
			ferr = err
			jcancel()
			return
		}
		if okA && okB {
			row := make([]int, len(cols))
			for i := range row {
				row[i] = -1
			}
			row[0], row[1] = a, b
			rows = append(rows, row)
		}
	})
	annotateOperator(joinSp, first.EstRows, len(rows))
	joinSp.End()
	mExecRows.Add(uint64(len(rows)))
	if ferr != nil {
		return nil, ferr
	}
	if jerr != nil {
		return nil, jerr
	}

	// Extension steps: index probes per row, sharded across a worker pool
	// when the intermediate result is large enough.
	var probe []int
	for _, s := range p.Steps[1:] {
		tab, err := c.Table(s.Table)
		if err != nil {
			return nil, err
		}
		_, stepSp := obs.StartSpan(ctx, "probe "+s.Table)
		col := colOf[s.Table]

		// extendRow probes the step's index with one row's connecting item
		// (the first predicate) and appends every verified extension to dst.
		// probeBuf is the caller's reusable search buffer — each goroutine
		// owns its own, so the shared index is only ever read.
		extendRow := func(row []int, probeBuf []int, dst [][]int) ([]int, [][]int, error) {
			drive, rest, err := splitPredicates(s, colOf, row, c, q)
			if err != nil {
				return probeBuf, dst, err
			}
			probeBuf = tab.Index.Search(drive, probeBuf[:0])
			for _, cand := range probeBuf {
				ok, err := passes(s.Table, cand)
				if err != nil {
					return probeBuf, dst, err
				}
				if !ok {
					continue
				}
				if !verify(rest, tab.Data.Items[cand]) {
					continue
				}
				out := make([]int, len(row))
				copy(out, row)
				out[col] = cand
				dst = append(dst, out)
			}
			return probeBuf, dst, nil
		}

		var next [][]int
		probes := 0
		if w := resolveWorkers(p.Workers, len(rows), parallelProbeMinRows); w > 1 {
			next, probes, err = probeRowsParallel(ctx, rows, w, extendRow)
			if err != nil {
				return nil, err
			}
		} else {
			for ri, row := range rows {
				if ri%cancelRowBatch == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				probes++
				if probe, next, err = extendRow(row, probe, next); err != nil {
					return nil, err
				}
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

// probeRowsParallel runs extendRow over every row using w workers. Rows are
// split into contiguous chunks claimed through an atomic cursor; each worker
// extends its chunk into a private buffer, and the chunk buffers are
// concatenated in chunk order, so the output row order is deterministic —
// identical across runs and worker counts, though not identical to the serial
// order of a different pool size. The context is polled per row batch inside
// every chunk; the first error (by chunk order) wins and aborts the pool.
func probeRowsParallel(ctx context.Context, rows [][]int, w int,
	extendRow func(row []int, probeBuf []int, dst [][]int) ([]int, [][]int, error)) ([][]int, int, error) {
	type chunkResult struct {
		rows   [][]int
		probes int
		err    error
	}
	chunk := (len(rows) + w*4 - 1) / (w * 4) // ~4 chunks per worker for balance
	if chunk < cancelRowBatch {
		chunk = cancelRowBatch
	}
	nChunks := (len(rows) + chunk - 1) / chunk
	res := make([]chunkResult, nChunks)
	var cursor int64
	var failed int32 // any chunk erred: stop claiming new chunks
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var probeBuf []int
			for {
				if atomic.LoadInt32(&failed) != 0 {
					return
				}
				ci := atomic.AddInt64(&cursor, 1) - 1
				if ci >= int64(nChunks) {
					return
				}
				lo := int(ci) * chunk
				hi := lo + chunk
				if hi > len(rows) {
					hi = len(rows)
				}
				cr := chunkResult{}
				for ri := lo; ri < hi; ri++ {
					if (ri-lo)%cancelRowBatch == 0 {
						if cr.err = ctx.Err(); cr.err != nil {
							break
						}
					}
					cr.probes++
					if probeBuf, cr.rows, cr.err = extendRow(rows[ri], probeBuf, cr.rows); cr.err != nil {
						break
					}
				}
				res[ci] = cr
				if cr.err != nil {
					atomic.StoreInt32(&failed, 1)
					return
				}
			}
		}()
	}
	wg.Wait()
	var out [][]int
	probes := 0
	for _, cr := range res {
		if cr.err != nil {
			return nil, 0, cr.err
		}
		probes += cr.probes
		out = append(out, cr.rows...)
	}
	return out, probes, nil
}

// splitPredicates resolves a step's predicates against a row: the first
// becomes the index probe rectangle, the others become verification
// rectangles that the candidate item must intersect.
func splitPredicates(s Step, colOf map[string]int, row []int, c *Catalog, q Query) (drive geom.Rect, rest []geom.Rect, err error) {
	for i, pred := range s.Against {
		other := pred.Left
		if other == s.Table {
			other = pred.Right
		}
		tab, err := c.Table(other)
		if err != nil {
			return geom.Rect{}, nil, err
		}
		id := row[colOf[other]]
		if id < 0 {
			return geom.Rect{}, nil, fmt.Errorf("sdb: internal: predicate %s references unjoined table", pred)
		}
		r := tab.Data.Items[id]
		if i == 0 {
			drive = r
		} else {
			rest = append(rest, r)
		}
	}
	return drive, rest, nil
}

func verify(rects []geom.Rect, candidate geom.Rect) bool {
	for _, r := range rects {
		if !candidate.Intersects(r) {
			return false
		}
	}
	return true
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
