package rtree

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
)

// Packed-kernel join counters — the packed family mirrors the pointer
// kernel's, so dashboards can compare the two side by side: a swept tile is
// the packed kernel's node visit, a y-test its leaf compare.
var packedJoinCounters = joinCounters{
	joins: obs.Default.Counter("rtree_packed_joins_total",
		"Packed-image spatial joins started."),
	nodeVisits: obs.Default.Counter("rtree_packed_node_visits_total",
		"Grid tiles swept by packed joins with entries on both sides."),
	leafCompares: obs.Default.Counter("rtree_packed_leaf_compares_total",
		"Y-overlap tests evaluated by packed joins' tile sweeps."),
	outputPairs: obs.Default.Counter("rtree_packed_output_pairs_total",
		"Intersecting pairs swept by packed joins; a two-table query's count and its page sweep each add theirs."),
	cancelPolls: obs.Default.Counter("rtree_packed_cancel_polls_total",
		"Context cancellation polls performed by packed joins."),
}

// btou converts a predicate to 0/1 without introducing a branch the hot loop
// must predict (the compiler lowers this pattern to SETcc/CSET).
func btou(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// tilePart is one (a-side, b-side) combination a join decomposes into: the
// planes or the delta of each image, and of each its tile runs or its wide
// run, with the rectangle of tiles to sweep. A part's pairs are disjoint from
// every other part's.
type tilePart struct {
	pa, pb *Packed
	// wideA and wideB select a side's wide run in place of its tile runs: the
	// same entries against every tile of the other side.
	wideA, wideB bool
	// x0..x1 × y0..y1 are the tiles swept, inclusive: what the two sides'
	// bounding boxes and the windows leave of the grid.
	x0, x1, y0, y1 int
}

// tiles calls visit with every tile of [lo, hi) that lies in the part's
// columns and has entries on both sides, in order, and the two runs to sweep
// there, until visit returns false. A row in which one side has nothing costs
// two offset reads, an empty tile four.
func (p *tilePart) tiles(lo, hi int, visit func(t int, ak []float64, ar []uint32, bk []float64, br []uint32) bool) {
	ia, ib := p.pa.tiles, p.pb.tiles
	for row := lo &^ (tileDim - 1); row < hi; row += tileDim {
		from, to := max(lo, row+p.x0), min(hi, row+p.x1+1)
		if from >= to || !p.wideA && ia.off[from] == ia.off[to] || !p.wideB && ib.off[from] == ib.off[to] {
			continue
		}
		for t := from; t < to; t++ {
			ta, tb := t, t
			if p.wideA {
				ta = numTiles
			}
			if p.wideB {
				tb = numTiles
			}
			if ia.off[ta] == ia.off[ta+1] || ib.off[tb] == ib.off[tb+1] {
				continue
			}
			ak, ar := ia.run(ta)
			bk, br := ib.run(tb)
			if !visit(t, ak, ar, bk, br) {
				return
			}
		}
	}
}

// tileTask is one independent unit of join work: the tiles [lo, hi) of a part,
// in row-major order, those outside the part's columns skipped.
type tileTask struct {
	part   *tilePart
	lo, hi int
}

// Task sizing: a part is cut into about tasksPerPart runs of tiles of equal
// weight — a tile weighs the entries of its two runs — but none lighter than
// minTaskEntries. Neither depends on the pool, so the task list, and with it
// the order pairs come out in, is a function of the images and the windows.
const (
	tasksPerPart   = 64
	minTaskEntries = 4096
)

// joinParts returns the parts of a ⋈ b in emission order — planes⋈planes,
// planes⋈delta, delta⋈planes, delta⋈delta for images that carry deltas, and
// within each tiles⋈tiles, tiles⋈wide, wide⋈tiles, wide⋈wide for images that
// have wide items — each with the rectangle of tiles it sweeps. Parts with an
// empty side are left out. The kernel cuts its tasks from these parts
// (tileJoinTasks) and JoinWork prices them, so the price covers exactly the
// tiles the sweep visits.
//
// A window restricts a part to the tiles its side's qualifying items can have
// a pair's reference corner in, and so does each side's bounding box, which
// every one of its items meets. An a-item meeting winA has its last tile at or
// after winA's first and its first at or before winA's last, so its tile range
// lies within winA's grown by pa's largest span; the reference corner lies in
// that range, and a wide item's partner has its first tile at most pb's
// largest span before it. Growing each rectangle's tile range by both images'
// spans covers every case, in integers: no rounding can put a pair outside.
func joinParts(a, b *Packed, winA, winB *geom.Rect) []tilePart {
	var parts []tilePart
	for _, pa := range [2]*Packed{a, a.delta} {
		for _, pb := range [2]*Packed{b, b.delta} {
			if pa == nil || pb == nil || pa.tiles == nil || pb.tiles == nil {
				continue
			}
			full := tilePart{pa: pa, pb: pb, x1: tileDim - 1, y1: tileDim - 1}
			sx, sy := pa.tiles.spanX+pb.tiles.spanX, pa.tiles.spanY+pb.tiles.spanY
			mbrA, mbrB := pa.RootMBR(), pb.RootMBR()
			for _, win := range [4]*geom.Rect{winA, winB, &mbrA, &mbrB} {
				if win != nil {
					full.x0, full.x1 = max(full.x0, tileOf(win.MinX)-sx), min(full.x1, tileOf(win.MaxX)+sx)
					full.y0, full.y1 = max(full.y0, tileOf(win.MinY)-sy), min(full.y1, tileOf(win.MaxY)+sy)
				}
			}
			for _, wide := range [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
				part := full
				part.wideA, part.wideB = wide[0], wide[1]
				if part.wideA && len(pa.tiles.wide()) == 0 || part.wideB && len(pb.tiles.wide()) == 0 {
					continue
				}
				if part.wideA && part.wideB {
					// One sweep of the two wide runs, filed under tile 0.
					part.x0, part.x1, part.y0, part.y1 = 0, 0, 0, 0
				}
				parts = append(parts, part)
			}
		}
	}
	return parts
}

// tileJoinTasks returns the tasks of a ⋈ b in emission order: part by part,
// and within a part by tile. No task means the join is empty.
func tileJoinTasks(a, b *Packed, winA, winB *geom.Rect) []tileTask {
	var tasks []tileTask
	parts := joinParts(a, b, winA, winB)
	for i := range parts {
		tasks = parts[i].appendTasks(tasks)
	}
	return tasks
}

// JoinWork prices a ⋈ b under the windows (nil = none) as PackedJoinBatches
// runs it: the entries of both sides' runs over every tile of every part's
// rectangle, a wide side counting its whole wide run at each. It is the
// sweep's input size, not a pair count — tombstoned entries count, since the
// sweep filters them, and so do tiles where only one side has entries, which
// the sweep skips after two offset reads — read off the runs' offsets, a
// row-major prefix sum, in O(rows) per part.
func JoinWork(a, b *Packed, winA, winB *geom.Rect) int {
	work := 0
	for _, p := range joinParts(a, b, winA, winB) {
		work += p.work()
	}
	return work
}

// work is the part's share of JoinWork: per row of its rectangle, each side's
// entries in the row's columns — one offset difference — or its wide run once
// per column.
func (p *tilePart) work() int {
	cols := p.x1 - p.x0 + 1
	if cols <= 0 {
		return 0
	}
	side := func(ix *tileIndex, wide bool, row int) int {
		if wide {
			return cols * len(ix.wide())
		}
		return int(ix.off[row+p.x1+1] - ix.off[row+p.x0])
	}
	work := 0
	for row := p.y0 * tileDim; row <= p.y1*tileDim; row += tileDim {
		work += side(p.pa.tiles, p.wideA, row) + side(p.pb.tiles, p.wideB, row)
	}
	return work
}

// appendTasks cuts the part's tiles into tasks. The weight a task is cut at
// comes from the images' total entries, an upper bound on the part's, so one
// pass over the tile offsets does it.
func (p *tilePart) appendTasks(tasks []tileTask) []tileTask {
	target := max((len(p.pa.tiles.keys)+len(p.pb.tiles.keys))/tasksPerPart, minTaskEntries)
	lo, end, weight := p.y0*tileDim, (p.y1+1)*tileDim, 0
	p.tiles(lo, end, func(t int, ak []float64, _ []uint32, bk []float64, _ []uint32) bool {
		if weight += len(ak) + len(bk); weight >= target {
			tasks = append(tasks, tileTask{part: p, lo: lo, hi: t + 1})
			lo, weight = t+1, 0
		}
		return true
	})
	if weight > 0 {
		tasks = append(tasks, tileTask{part: p, lo: lo, hi: end})
	}
	return tasks
}

// Batch capacities: a run's first batch is small, so a join that finds a
// handful of pairs costs a few kilobytes, and each next one doubles up to a
// size at which the per-batch costs no longer show.
const (
	minBatchPairs = 1 << 8
	maxBatchPairs = 1 << 15
)

// tileJoinRun is one goroutine's share of a join: the shared state, the
// windows, the batch it is filling and the scratch it filters runs into. It
// outlives its tasks — totals, batch and scratch carry over from one to the
// next — so what a task leaves behind is a segment of the batch, and a batch's
// unused tail is paid once per goroutine, not once per task.
type tileJoinRun struct {
	joinState
	// winA and winB restrict the join to a-items meeting winA and b-items
	// meeting winB (nil = unrestricted).
	winA, winB *geom.Rect
	// buf is the batch being filled, a-id and b-id interleaved: buf[:n] is
	// written, buf[:from] already handed out by take, buf[:counted] already in
	// pairs. sealed holds the segments of full batches not yet taken.
	buf              []int
	n, from, counted int
	sealed           [][]int
	// drain, when set, is handed each batch in place of sealing it — every
	// full one, and a task's last, partial one when the task ends — and the
	// batch is refilled: a run streams a join of any size through one small
	// buffer. task is the index of the task being swept, and drained the pairs
	// of it handed over before this batch. A drain that returns false ends
	// the task (errStopped).
	drain         func(j *tileJoinRun, batch []int) bool
	task, drained int
	// countOnly makes the run count its pairs (tally) instead of writing them.
	countOnly    bool
	keepA, keepB tileScratch
}

// errStopped is the error a run latches when its drain ends the task; the
// run goes on with its next task.
var errStopped = errors.New("rtree: task stopped by its consumer")

// tileScratch holds the entries of a run that survive its side's tombstones
// and window.
type tileScratch struct {
	keys []float64
	refs []uint32
}

// count brings pairs up to date with the batch.
func (j *tileJoinRun) count() {
	j.pairs += (j.n - j.counted) / 2
	j.counted = j.n
}

// spill disposes of the full batch — drained, or its untaken part sealed —
// and leaves an empty one to continue in.
func (j *tileJoinRun) spill() {
	j.count()
	if j.drain != nil && j.buf != nil {
		if !j.drain(j, j.buf[:j.n]) {
			j.err = errStopped
		}
		j.drained += j.n / 2
	} else {
		if j.n > j.from {
			j.sealed = append(j.sealed, j.buf[j.from:j.n:j.n])
		}
		j.buf = make([]int, 2*min(max(len(j.buf), minBatchPairs), maxBatchPairs))
	}
	j.n, j.from, j.counted = 0, 0, 0
}

// take returns what was written since the last take, in order, as segments
// capped at their length: appending to one cannot reach the next.
func (j *tileJoinRun) take() [][]int {
	segs := j.sealed
	if j.n > j.from {
		segs = append(segs, j.buf[j.from:j.n:j.n])
	}
	j.sealed, j.from = nil, j.n
	return segs
}

// keep returns the entries of a run whose items are live and meet win; with
// neither tombstones nor a window that is the run itself.
func (sc *tileScratch) keep(p *Packed, win *geom.Rect, keys []float64, refs []uint32) ([]float64, []uint32) {
	if p.dead == nil && win == nil {
		return keys, refs
	}
	sc.keys, sc.refs = sc.keys[:0], sc.refs[:0]
	for i, r := range refs {
		s := int(r >> refShift)
		if p.dead != nil && slotDead(p.dead, s) {
			continue
		}
		if win != nil && (keys[i] > win.MaxX || win.MinX > p.itemXMax[s] ||
			p.itemYMin[s] > win.MaxY || win.MinY > p.itemYMax[s]) {
			continue
		}
		sc.keys, sc.refs = append(sc.keys, keys[i]), append(sc.refs, r)
	}
	return sc.keys, sc.refs
}

// sweepTask sweeps the task's tiles in order. A tile with entries on both
// sides counts as a visit, the unit the context is polled by.
func (j *tileJoinRun) sweepTask(tk *tileTask) {
	p := tk.part
	var force uint32
	if p.wideA && p.wideB {
		// Two wide items have no tile to start in: their one sweep reports.
		force = startsX | startsY
	}
	p.tiles(tk.lo, tk.hi, func(_ int, ak []float64, ar []uint32, bk []float64, br []uint32) bool {
		if j.cancelled() {
			return false
		}
		ak, ar = j.keepA.keep(p.pa, j.winA, ak, ar)
		bk, br = j.keepB.keep(p.pb, j.winB, bk, br)
		if j.countOnly {
			j.tally(p.pa, p.pb, ak, ar, bk, br, force)
		} else {
			j.sweep(p.pa, p.pb, ak, ar, bk, br, force)
		}
		return true
	})
	j.count()
}

// sweep is the kernel: a forward-scan plane sweep of two runs sorted by xmin.
// The run with the smaller head yields the pivot; the other is scanned from
// its head while its xmin is within the pivot's x-extent — so the two overlap
// in x — and each scanned entry is tested for y-overlap. Of the tiles a pair
// shares, exactly one reports it: the one holding the lower-left corner of the
// two items' intersection, which is the tile where one of them starts in x and
// one of them starts in y — read off the entries' start bits (ORed with force),
// never recomputed from coordinates, so the test cannot disagree with the tile
// assignment on a boundary. The candidate pair is stored unconditionally and
// the cursor advanced by the predicate: the y-test is a coin flip on real data,
// and a branch on it costs more than the rest of the loop. A drain that ends
// the task ends the sweep at the batch it was handed.
func (j *tileJoinRun) sweep(pa, pb *Packed, ak []float64, ar []uint32, bk []float64, br []uint32, force uint32) {
	out, n := j.buf, j.n
	tests := 0
	i, k := 0, 0
	for i < len(ak) && k < len(bk) {
		if ak[i] <= bk[k] {
			r := ar[i] | force
			s := r >> refShift
			xmax, ymin, ymax, id := pa.itemXMax[s], pa.itemYMin[s], pa.itemYMax[s], pa.itemID[s]
			c := k
			for ; c < len(bk) && bk[c] <= xmax; c++ {
				if n+2 > len(out) {
					j.n = n
					if j.spill(); j.err != nil {
						return
					}
					out, n = j.buf, 0
				}
				rc := r | br[c]
				sc := br[c] >> refShift
				out[n], out[n+1] = id, pb.itemID[sc]
				n += 2 * int(btou(pb.itemYMin[sc] <= ymax)&btou(ymin <= pb.itemYMax[sc])&uint64(rc>>1&rc&1))
			}
			tests += c - k
			i++
		} else {
			r := br[k] | force
			s := r >> refShift
			xmax, ymin, ymax, id := pb.itemXMax[s], pb.itemYMin[s], pb.itemYMax[s], pb.itemID[s]
			c := i
			for ; c < len(ak) && ak[c] <= xmax; c++ {
				if n+2 > len(out) {
					j.n = n
					if j.spill(); j.err != nil {
						return
					}
					out, n = j.buf, 0
				}
				rc := r | ar[c]
				sc := ar[c] >> refShift
				out[n], out[n+1] = pa.itemID[sc], id
				n += 2 * int(btou(pa.itemYMin[sc] <= ymax)&btou(ymin <= pa.itemYMax[sc])&uint64(rc>>1&rc&1))
			}
			tests += c - i
			k++
		}
	}
	j.n = n
	j.compares += tests
}

// tally is sweep without the stores: the same merge, the same y-tests and the
// same reference-corner rule, each reported pair added to the run's count
// instead of written to its batch. FuzzTileJoin holds the two bodies to the
// same pairs, task by task. It is a second body because it reads no item ids:
// counting by draining sweep's batches and dropping them made join-paper
// 21 % slower end to end (EXPERIMENTS.md "One body or two").
func (j *tileJoinRun) tally(pa, pb *Packed, ak []float64, ar []uint32, bk []float64, br []uint32, force uint32) {
	n, tests := 0, 0
	i, k := 0, 0
	for i < len(ak) && k < len(bk) {
		if ak[i] <= bk[k] {
			r := ar[i] | force
			s := r >> refShift
			xmax, ymin, ymax := pa.itemXMax[s], pa.itemYMin[s], pa.itemYMax[s]
			c := k
			for ; c < len(bk) && bk[c] <= xmax; c++ {
				rc := r | br[c]
				sc := br[c] >> refShift
				n += int(btou(pb.itemYMin[sc] <= ymax) & btou(ymin <= pb.itemYMax[sc]) & uint64(rc>>1&rc&1))
			}
			tests += c - k
			i++
		} else {
			r := br[k] | force
			s := r >> refShift
			xmax, ymin, ymax := pb.itemXMax[s], pb.itemYMin[s], pb.itemYMax[s]
			c := i
			for ; c < len(ak) && ak[c] <= xmax; c++ {
				rc := r | ar[c]
				sc := ar[c] >> refShift
				n += int(btou(pa.itemYMin[sc] <= ymax) & btou(ymin <= pa.itemYMax[sc]) & uint64(rc>>1&rc&1))
			}
			tests += c - i
			k++
		}
	}
	j.pairs += n
	j.compares += tests
}

// PackedJoinBatches computes the intersection join of two packed images —
// restricted, when winA or winB is non-nil, to a-items meeting winA and
// b-items meeting winB, exactly the pairs a filter after the full join would
// keep — and returns the pairs as batches of interleaved ids: batch[2i] from
// a, batch[2i+1] from b. Concatenated in slice order the batches are the
// join's emission sequence, a function of the two images and the windows
// alone: the same for every worker count and every scheduling. Each batch is
// capped at its length, and a consumer that wants the pairs as rows reads them
// in place (batch[2i:2i+2:2i+2]), with no per-pair call or copy in between.
// CountPackedJoin counts the same sequence without making it, and its Page
// sweeps out any range of it.
//
// The join is a plane sweep per tile of the grid both images were indexed on
// at PackItems (tileIndex). An image that carries an overlay joins as its planes,
// tombstones skipped, and then its delta — a small image like any other — so
// the join of two such images is up to four parts, emitted in the order
// planes⋈planes, planes⋈delta, delta⋈planes, delta⋈delta (tileJoinTasks).
//
// workers is the pool size: the caller resolves any "auto" knob. A pool of
// one or less sweeps on the caller's goroutine. A larger pool's goroutines
// claim the same tasks through an atomic cursor, and the batches come back in
// task order regardless of who swept what.
//
// The context is polled once per cancelCheckInterval swept tiles and between
// tasks; when it is done the join stops promptly and returns no batches and
// the context's error. The packed join counters are updated once, at the end,
// with the sum of all workers' work.
// Both images may be shared with concurrent readers.
func PackedJoinBatches(ctx context.Context, a, b *Packed, workers int, winA, winB *geom.Rect) ([][]int, error) {
	packedJoinCounters.joins.Inc()
	tasks := tileJoinTasks(a, b, winA, winB)
	// Per-task segments, indexed by task. A goroutine writes only the slots it
	// claimed, so the slice needs no lock; it is read after runTasks returns.
	perTask := make([][][]int, len(tasks))
	err := runTasks(ctx, "rtree.packed_join", tasks, workers, tileJoinRun{winA: winA, winB: winB},
		func(j *tileJoinRun, i, _ int) { perTask[i] = j.take() })
	if err != nil {
		return nil, err
	}
	var batches [][]int
	for _, segs := range perTask {
		batches = append(batches, segs...)
	}
	return batches, nil
}

// runTasks sweeps the tasks on a pool of workers — one or less sweeps on the
// caller's goroutine — each goroutine in its own copy of run, claiming tasks
// through an atomic cursor. done, if set, is called on the sweeping goroutine
// with each finished task's index and its pairs. A run that drains hands its
// drain each task's last, partial batch when the task ends, unless the drain
// ended the task. The runs' totals are added to the packed join counters and
// to a span named name, and the first error a run met, the context's, is
// returned.
func runTasks(ctx context.Context, name string, tasks []tileTask, workers int, run tileJoinRun, done func(j *tileJoinRun, i, pairs int)) error {
	if len(tasks) == 0 {
		return nil
	}
	if workers > 1 {
		name += "_parallel"
	}
	sp := obs.SpanFrom(ctx).Child(name)
	var cursor atomic.Int64
	// Whole-join totals: each goroutine accumulates in its own run across all
	// the tasks it claims and adds that in once at exit.
	var total joinState
	var mu sync.Mutex
	work := func() {
		j := run
		j.ctx = ctx
		for {
			if j.err = ctx.Err(); j.err != nil {
				break
			}
			i := cursor.Add(1) - 1
			if i >= int64(len(tasks)) {
				break
			}
			before := j.pairs
			j.task, j.drained = int(i), 0
			j.sweepTask(&tasks[i])
			if j.drain != nil && j.err == nil {
				j.spill()
			}
			if errors.Is(j.err, errStopped) {
				j.err = nil
			}
			if j.err != nil {
				break
			}
			if done != nil {
				done(&j, int(i), j.pairs-before)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		total.visits += j.visits
		total.polls += j.polls
		total.compares += j.compares
		total.pairs += j.pairs
		if total.err == nil {
			total.err = j.err
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
		sp.Set("workers", float64(workers))
	}
	sp.Set("tasks", float64(len(tasks)))
	total.flush(&packedJoinCounters, sp)
	return total.err
}

// CountedJoin is a join counted and not made: its tasks, in emission order,
// and the pairs each task emits. Len is the join's size, and Page sweeps any
// range of its emission sequence out of the images without making the pairs
// before it. It keeps the images it was counted on, which must not change
// (a Packed never does), and the pool size it was counted with.
type CountedJoin struct {
	winA, winB *geom.Rect
	workers    int
	tasks      []tileTask
	counts     []int
	total      int
}

// CountPackedJoin counts the pairs of a ⋈ b under the windows (nil = none):
// the sweep of PackedJoinBatches, on a pool of workers the way it runs, with
// each pair counted where that sweep would write it. Each task's count is its
// own, so the counts add up to the exact total: the reference-corner rule
// reports every pair in exactly one tile. The context is polled as
// PackedJoinBatches polls it; when it is done the count returns nil and the
// context's error.
func CountPackedJoin(ctx context.Context, a, b *Packed, workers int, winA, winB *geom.Rect) (*CountedJoin, error) {
	packedJoinCounters.joins.Inc()
	c := &CountedJoin{winA: winA, winB: winB, workers: workers, tasks: tileJoinTasks(a, b, winA, winB)}
	c.counts = make([]int, len(c.tasks))
	err := runTasks(ctx, "rtree.packed_join", c.tasks, workers, tileJoinRun{winA: winA, winB: winB, countOnly: true},
		func(_ *tileJoinRun, i, pairs int) { c.counts[i] = pairs })
	if err != nil {
		return nil, err
	}
	for _, n := range c.counts {
		c.total += n
	}
	return c, nil
}

// Len returns the number of pairs in the join.
func (c *CountedJoin) Len() int { return c.total }

// Page returns pairs [offset, offset+limit) of the join's emission sequence,
// clipped to its end, as interleaved ids (page[2i] from a, page[2i+1] from b);
// past the end it is empty and non-nil. Only the tasks the page overlaps are
// swept — their counts say which, and where each one's pairs land in the
// page — on the pool the join was counted with, each goroutine through one
// drained batch, and a task stops once its share of the page is written: the
// memory a page takes is the task list, a batch per goroutine and the page,
// whatever the join's size. The context is polled as PackedJoinBatches polls
// it; when it is done Page returns nil and the context's error.
func (c *CountedJoin) Page(ctx context.Context, offset, limit int) ([]int, error) {
	offset = min(max(offset, 0), c.total)
	end := offset + min(max(limit, 0), c.total-offset)
	page := make([]int, 2*(end-offset))
	if end == offset {
		return page, nil
	}
	// Task first is the first to end after offset; starts[k] is the position
	// of task first+k's first pair, up to the task that holds end-1.
	first, start := 0, 0
	for start+c.counts[first] <= offset {
		start += c.counts[first]
		first++
	}
	starts := []int{start}
	for k := first; start+c.counts[k] < end; k++ {
		start += c.counts[k]
		starts = append(starts, start)
	}
	drain := func(j *tileJoinRun, batch []int) bool {
		at := starts[j.task] + j.drained
		if lo, hi := max(offset, at), min(end, at+len(batch)/2); lo < hi {
			copy(page[2*(lo-offset):], batch[2*(lo-at):2*(hi-at)])
		}
		return at+len(batch)/2 < end
	}
	err := runTasks(ctx, "rtree.packed_page", c.tasks[first:first+len(starts)], min(c.workers, len(starts)),
		tileJoinRun{winA: c.winA, winB: c.winB, drain: drain}, nil)
	if err != nil {
		return nil, err
	}
	return page, nil
}

// PackedJoinFuncContext streams each intersecting (aID, bID) pair between two
// packed images to emit, on the caller's goroutine, through one small batch
// drained as it fills: a done context stops the sweep with some pairs already
// emitted and returns its error. Emission order is that of PackedJoinBatches.
func PackedJoinFuncContext(ctx context.Context, a, b *Packed, emit func(aID, bID int)) error {
	packedJoinCounters.joins.Inc()
	return runTasks(ctx, "rtree.packed_join", tileJoinTasks(a, b, nil, nil), 1, tileJoinRun{drain: func(_ *tileJoinRun, batch []int) bool {
		for i := 0; i < len(batch); i += 2 {
			emit(batch[i], batch[i+1])
		}
		return true
	}}, nil)
}

// PackedJoinCount returns the number of intersecting pairs between two packed
// images: CountPackedJoin's serial count.
func PackedJoinCount(a, b *Packed) int {
	c, _ := CountPackedJoin(context.Background(), a, b, 1, nil, nil) // a background count cannot fail
	return c.Len()
}

// PackedJoinFuncParallelContext is the callback form of PackedJoinBatches for
// consumers that want pairs one at a time: it runs the unwindowed join on a
// pool of workers (one or less is the serial PackedJoinFuncContext) and drains
// the batches into emit in order, so the emitted sequence is the same for
// every worker count — and emit itself is always called from the caller's
// goroutine, never concurrently.
//
// A huge result set makes the drain long too, so it polls the context between
// batches: cancellation mid-drain stops it with some pairs already emitted
// and returns the context's error.
func PackedJoinFuncParallelContext(ctx context.Context, a, b *Packed, workers int, emit func(aID, bID int)) error {
	if workers <= 1 {
		return PackedJoinFuncContext(ctx, a, b, emit)
	}
	batches, err := PackedJoinBatches(ctx, a, b, workers, nil, nil)
	if err != nil {
		return err
	}
	for _, batch := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < len(batch); i += 2 {
			emit(batch[i], batch[i+1])
		}
	}
	return nil
}
