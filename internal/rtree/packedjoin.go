package rtree

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
)

// Packed-kernel join counters — the packed family mirrors the pointer
// kernel's, so dashboards can compare the two side by side.
var packedJoinCounters = joinCounters{
	joins: obs.Default.Counter("rtree_packed_joins_total",
		"Packed-image spatial joins started."),
	nodeVisits: obs.Default.Counter("rtree_packed_node_visits_total",
		"Node pairs visited by packed joins."),
	leafCompares: obs.Default.Counter("rtree_packed_leaf_compares_total",
		"SoA predicate lanes evaluated by packed joins."),
	outputPairs: obs.Default.Counter("rtree_packed_output_pairs_total",
		"Intersecting pairs emitted by packed joins."),
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

// lane is one branchless closed-rectangle intersection test against a SoA
// slot: 1 when the query rect and the slot rect share at least a boundary
// point.
func lane(qxmin, qymin, qxmax, qymax, xmin, ymin, xmax, ymax float64) uint64 {
	return btou(xmin <= qxmax) & btou(qxmin <= xmax) &
		btou(ymin <= qymax) & btou(qymin <= ymax)
}

// overlapMask evaluates the query rect against n consecutive SoA slots
// starting at lo (n ≤ 64) and returns the intersection bitmask, bit i for
// slot lo+i. The loop runs 8 lanes per step with no data-dependent branches,
// so the compiler keeps the four query coordinates in registers and the four
// planes stream sequentially through the cache.
func overlapMask(qxmin, qymin, qxmax, qymax float64, xmin, ymin, xmax, ymax []float64, lo, n int) uint64 {
	xm := xmin[lo : lo+n : lo+n]
	ym := ymin[lo : lo+n : lo+n]
	xM := xmax[lo : lo+n : lo+n]
	yM := ymax[lo : lo+n : lo+n]
	var m uint64
	j := 0
	for ; j+8 <= n; j += 8 {
		var w uint64
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j], ym[j], xM[j], yM[j])
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+1], ym[j+1], xM[j+1], yM[j+1]) << 1
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+2], ym[j+2], xM[j+2], yM[j+2]) << 2
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+3], ym[j+3], xM[j+3], yM[j+3]) << 3
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+4], ym[j+4], xM[j+4], yM[j+4]) << 4
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+5], ym[j+5], xM[j+5], yM[j+5]) << 5
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+6], ym[j+6], xM[j+6], yM[j+6]) << 6
		w |= lane(qxmin, qymin, qxmax, qymax, xm[j+7], ym[j+7], xM[j+7], yM[j+7]) << 7
		m |= w << uint(j)
	}
	for ; j < n; j++ {
		m |= lane(qxmin, qymin, qxmax, qymax, xm[j], ym[j], xM[j], yM[j]) << uint(j)
	}
	return m
}

// packedJoinRun is one traversal of two packed images: the shared state, the
// images, the optional per-side windows, the batches the traversal appends its
// pairs to, and per-side node accesses, kept local and flushed once at the
// end like the rest. A run outlives its image pair: the driver points pa and
// pb at each part of a join in turn (packedJoinParts) and the totals and
// batches carry over.
type packedJoinRun struct {
	joinState
	// pa and pb are the planes being traversed; their tombstones are masked
	// out at the leaves and their deltas are not followed.
	pa, pb *Packed
	// winA and winB restrict the join to a-items meeting winA and b-items
	// meeting winB (nil = unrestricted). A window prunes; it never shrinks a
	// clip, because an item may meet its window outside the pair's clip.
	winA, winB *geom.Rect
	// out is the batch being filled and sealed the full ones before it, in
	// order: a pair is written once and never copied to a larger buffer.
	out    []JoinPair
	sealed [][]JoinPair
	// drain, when set, is handed every full batch in place of sealing it, and
	// the batch is refilled: the serial callback entry point streams a join of
	// any size through one small buffer.
	drain      func([]JoinPair)
	accA, accB int
}

// Batch capacities: a run's first batch is small, so a task that finds a
// handful of pairs costs a few kilobytes, and each next one doubles up to a
// size at which the per-batch costs no longer show.
const (
	minBatchPairs = 1 << 8
	maxBatchPairs = 1 << 15
)

// spill disposes of the full batch out — sealed, or drained — and returns an
// empty one to continue in.
func (j *packedJoinRun) spill(out []JoinPair) []JoinPair {
	n := minBatchPairs
	if cap(out) > 0 {
		if j.drain != nil {
			j.drain(out)
			return out[:0]
		}
		j.sealed = append(j.sealed, out)
		if n = 2 * cap(out); n > maxBatchPairs {
			n = maxBatchPairs
		}
	}
	return make([]JoinPair, 0, n)
}

// take returns the batches filled since the last take, in order, and leaves
// the run with none.
func (j *packedJoinRun) take() [][]JoinPair {
	batches := j.sealed
	if len(j.out) > 0 {
		batches = append(batches, j.out)
	}
	j.out, j.sealed = nil, nil
	return batches
}

// flush publishes the run's totals: the shared counters and span, plus the
// access counters of the two images the join was asked for (a delta's node
// touches count on the image that carries it).
func (j *packedJoinRun) flush(sp *obs.Span, a, b *Packed) {
	j.joinState.flush(&packedJoinCounters, sp)
	atomic.AddInt64(&a.accesses, int64(j.accA))
	atomic.AddInt64(&b.accesses, int64(j.accB))
}

// nodeRect materializes node i's MBR from the planes.
func (p *Packed) nodeRect(i int32) geom.Rect {
	return geom.Rect{MinX: p.nodeXMin[i], MinY: p.nodeYMin[i], MaxX: p.nodeXMax[i], MaxY: p.nodeYMax[i]}
}

// join joins two nodes known to have intersecting MBRs; clip is the
// intersection of their MBRs. Mixed heights descend the internal side only.
// A node whose own MBR misses its side's window holds no qualifying item, so
// the pair is dropped before it counts as a visit; testing here covers
// internal, mixed-height and expanded-task pairs alike.
func (j *packedJoinRun) join(na, nb int32, clip geom.Rect) {
	if j.winA != nil && !j.pa.nodeRect(na).Intersects(*j.winA) ||
		j.winB != nil && !j.pb.nodeRect(nb).Intersects(*j.winB) {
		return
	}
	if j.cancelled() {
		return
	}
	j.accA++
	j.accB++
	pa, pb := j.pa, j.pb
	switch {
	case pa.leaf[na] && pb.leaf[nb]:
		j.joinLeaves(na, nb, clip)
	case pa.leaf[na]:
		s, c := pb.start[nb], pb.count[nb]
		for i := s; i < s+c; i++ {
			if sub, ok := pb.nodeRect(i).Intersection(clip); ok {
				j.join(na, i, sub)
			}
		}
	case pb.leaf[nb]:
		s, c := pa.start[na], pa.count[na]
		for i := s; i < s+c; i++ {
			if sub, ok := pa.nodeRect(i).Intersection(clip); ok {
				j.join(i, nb, sub)
			}
		}
	default:
		j.joinInternal(na, nb, clip)
	}
}

// maskWords is the stack-allocated capacity for per-run clip masks: 8 words
// cover fanouts up to 512 without a heap allocation.
const maskWords = 8

// runClipMask evaluates clip against the [s, s+c) run of the given planes and
// returns one bitmask word per 64 slots. Entries outside clip cannot
// contribute to this node pair (an entry pair's intersection always lies
// inside both parents' MBRs, hence inside clip), so downstream loops skip
// whole words the clip zeroes out — the packed counterpart of the pointer
// sweep's clip filter, and what keeps selective workloads from paying
// O(count²) lanes per node pair.
func runClipMask(buf []uint64, xm, ym, xM, yM []float64, s, c int, clip geom.Rect) []uint64 {
	for base := 0; base < c; base += 64 {
		n := c - base
		if n > 64 {
			n = 64
		}
		buf = append(buf, overlapMask(clip.MinX, clip.MinY, clip.MaxX, clip.MaxY, xm, ym, xM, yM, s+base, n))
	}
	return buf
}

// joinInternal pairs the two nodes' child runs: each a-child surviving the
// clip filter is mask-tested against the clip-surviving words of b's
// contiguous child run, and every set bit recurses with the pair's MBR
// intersection as the new clip.
func (j *packedJoinRun) joinInternal(na, nb int32, clip geom.Rect) {
	pa, pb := j.pa, j.pb
	as, ac := int(pa.start[na]), int(pa.count[na])
	bs, bc := int(pb.start[nb]), int(pb.count[nb])
	// The clip mask lives on this frame's stack: the recursion below must not
	// share a buffer with its callers.
	var cmArr [maskWords]uint64
	cm := runClipMask(cmArr[:0], pb.nodeXMin, pb.nodeYMin, pb.nodeXMax, pb.nodeYMax, bs, bc, clip)
	for i := as; i < as+ac; i++ {
		axmin, aymin := pa.nodeXMin[i], pa.nodeYMin[i]
		axmax, aymax := pa.nodeXMax[i], pa.nodeYMax[i]
		if axmin > clip.MaxX || clip.MinX > axmax || aymin > clip.MaxY || clip.MinY > aymax {
			continue
		}
		for w, cw := range cm {
			if cw == 0 {
				continue
			}
			base := w * 64
			n := bc - base
			if n > 64 {
				n = 64
			}
			j.compares += n
			m := cw & overlapMask(axmin, aymin, axmax, aymax,
				pb.nodeXMin, pb.nodeYMin, pb.nodeXMax, pb.nodeYMax, bs+base, n)
			for m != 0 {
				k := int32(bs + base + bits.TrailingZeros64(m))
				m &= m - 1
				sub := geom.Rect{
					MinX: maxf(axmin, pb.nodeXMin[k]),
					MinY: maxf(aymin, pb.nodeYMin[k]),
					MaxX: minf(axmax, pb.nodeXMax[k]),
					MaxY: minf(aymax, pb.nodeYMax[k]),
				}
				j.join(int32(i), k, sub)
				if j.err != nil {
					return
				}
			}
		}
	}
}

// joinLeaves appends every intersecting item pair between two leaves to the
// run's batch. Each live a-item surviving the clip filter (and its window)
// walks b's run at group granularity: the group's bounding box (tight, thanks
// to Hilbert layout) rejects eight items with one rect test, and only
// surviving groups pay the 8-wide item mask, ANDed with the same mask for b's
// window and with the complement of the group's tombstone byte.
// Sparse workloads — where most leaf pairs share a sliver of clip and almost
// no items — prune at the group level instead of evaluating the whole run.
func (j *packedJoinRun) joinLeaves(na, nb int32, clip geom.Rect) {
	pa, pb := j.pa, j.pb
	winA, winB := j.winA, j.winB
	out := j.out
	as, ac := int(pa.start[na]), int(pa.count[na])
	bs, bc := int(pb.start[nb]), int(pb.count[nb])
	if bc == 0 {
		return
	}
	bend := bs + bc
	g0, g1 := bs/itemGroup, (bend-1)/itemGroup
	for i := as; i < as+ac; i++ {
		axmin, aymin := pa.itemXMin[i], pa.itemYMin[i]
		axmax, aymax := pa.itemXMax[i], pa.itemYMax[i]
		if axmin > clip.MaxX || clip.MinX > axmax || aymin > clip.MaxY || clip.MinY > aymax {
			continue
		}
		// Tombstones are read through the image here and below, not hoisted
		// into locals: two more slices live across this loop cost the join of
		// overlay-free images 3–4 % (EXPERIMENTS.md "O(batch) publish").
		if pa.dead != nil && slotDead(pa.dead, i) {
			continue
		}
		if winA != nil && (axmin > winA.MaxX || winA.MinX > axmax || aymin > winA.MaxY || winA.MinY > aymax) {
			continue
		}
		aid := pa.itemID[i]
		for g := g0; g <= g1; g++ {
			if pb.grpXMin[g] > axmax || axmin > pb.grpXMax[g] ||
				pb.grpYMin[g] > aymax || aymin > pb.grpYMax[g] {
				continue
			}
			lo, hi := groupSpan(g, bs, bend)
			n := hi - lo
			j.compares += n
			m := overlapMask(axmin, aymin, axmax, aymax,
				pb.itemXMin, pb.itemYMin, pb.itemXMax, pb.itemYMax, lo, n)
			if winB != nil && m != 0 {
				j.compares += n
				m &= overlapMask(winB.MinX, winB.MinY, winB.MaxX, winB.MaxY,
					pb.itemXMin, pb.itemYMin, pb.itemXMax, pb.itemYMax, lo, n)
			}
			if m != 0 && pb.dead != nil {
				m &^= deadLanes(pb.dead, g) >> uint(lo-g*itemGroup)
			}
			j.pairs += bits.OnesCount64(m)
			for m != 0 {
				k := lo + bits.TrailingZeros64(m)
				m &= m - 1
				if len(out) == cap(out) {
					out = j.spill(out)
				}
				out = append(out, JoinPair{A: aid, B: pb.itemID[k]})
			}
		}
	}
	j.out = out
}

// groupSpan returns the item slots of group g that lie inside the leaf run
// [s, end): groups align to the global item array, so a run's first and last
// group may straddle its neighbours.
func groupSpan(g, s, end int) (lo, hi int) {
	lo, hi = g*itemGroup, (g+1)*itemGroup
	if lo < s {
		lo = s
	}
	if hi > end {
		hi = end
	}
	return lo, hi
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// PackedJoinBatches is the packed kernel's one entry point: it computes the
// intersection join of two packed images — restricted, when winA or winB is
// non-nil, to a-items meeting winA and b-items meeting winB, exactly the pairs
// a filter after the full join would keep — and returns the pairs as batches.
// Concatenated in slice order the batches are the join's emission sequence,
// deterministic for identical images, windows and worker count; a consumer
// that knows the total (the executor sizing its row slab) reads them in place,
// with no per-pair call in between.
//
// An image that carries an overlay joins as its planes, tombstones masked, and
// then its delta — a small image like any other — so the join of two such
// images is up to four traversals of the one kernel, emitted in the order
// planes⋈planes, planes⋈delta, delta⋈planes, delta⋈delta (packedJoinParts).
//
// workers is the pool size: the caller resolves any "auto" knob. A pool of
// one or less runs the traversal on the caller's goroutine. A larger pool
// expands each part's top levels serially into
// independent node-pair tasks; workers claim tasks through an atomic cursor,
// each running the same traversal on its task's subtrees into that task's own
// batches, and the batches come back in task order regardless of scheduling
// (the task list granularity scales with the pool, so different worker counts
// may order pairs differently while producing the same set).
//
// The context is polled once per batch of node-pair visits inside every
// traversal and between tasks; when it is done the join stops promptly and
// returns no batches and the context's error. Access accounting on both
// images and the packed join counters are updated once, at the end, with the
// sum of all workers' work plus the expansion's. Both images may be shared
// with concurrent readers.
func PackedJoinBatches(ctx context.Context, a, b *Packed, workers int, winA, winB *geom.Rect) ([][]JoinPair, error) {
	if workers <= 1 {
		return packedJoinSerial(ctx, a, b, winA, winB, nil)
	}
	parts := packedJoinParts(a, b)
	if len(parts) == 0 {
		return nil, nil
	}
	sp := obs.SpanFrom(ctx).Child("rtree.packed_join_parallel")

	tasks, expA, expB := expandPackedJoinTasks(parts, workers*taskTargetPerWorker)

	// Per-task batches, indexed by task. Workers write only the slots they
	// claimed, so the slice needs no lock; it is read after Wait.
	perTask := make([][][]JoinPair, len(tasks))
	var cursor atomic.Int64
	// Whole-join totals, seeded with the expansion's visits. Each worker
	// accumulates in its own run across all the tasks it claims and adds that
	// in once at exit.
	total := packedJoinRun{joinState: joinState{visits: expA + expB}, accA: expA, accB: expB}
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := &packedJoinRun{joinState: joinState{ctx: ctx}, winA: winA, winB: winB}
			for {
				if j.err = ctx.Err(); j.err != nil {
					break
				}
				i := cursor.Add(1) - 1
				if i >= int64(len(tasks)) {
					break
				}
				tk := tasks[i]
				j.pa, j.pb = tk.pa, tk.pb
				j.join(tk.na, tk.nb, tk.clip)
				if j.err != nil {
					break
				}
				perTask[i] = j.take()
			}
			mu.Lock()
			defer mu.Unlock()
			total.visits += j.visits
			total.polls += j.polls
			total.compares += j.compares
			total.pairs += j.pairs
			total.accA += j.accA
			total.accB += j.accB
			if total.err == nil {
				total.err = j.err
			}
		}()
	}
	wg.Wait()

	sp.Set("workers", float64(workers))
	sp.Set("tasks", float64(len(tasks)))
	total.flush(sp, a, b)
	if total.err != nil {
		return nil, total.err
	}
	var batches [][]JoinPair
	for _, b := range perTask {
		batches = append(batches, b...)
	}
	return batches, nil
}

// packedJoinTask is one independent unit of join work: a node pair of two
// images' planes whose subtree join is disjoint from every other task's.
type packedJoinTask struct {
	pa, pb *Packed
	na, nb int32
	clip   geom.Rect
}

// packedJoinParts counts one join and returns the root tasks it decomposes
// into, in emission order: the two images' planes, then — for a side that
// carries a delta — planes⋈delta, delta⋈planes, delta⋈delta. A part with an
// empty side or disjoint roots is left out; no part left means the join is
// empty without a traversal. Two overlay-free images have one part.
func packedJoinParts(a, b *Packed) []packedJoinTask {
	packedJoinCounters.joins.Inc()
	parts := make([]packedJoinTask, 0, 4)
	for _, pa := range [2]*Packed{a, a.delta} {
		for _, pb := range [2]*Packed{b, b.delta} {
			if pa == nil || pb == nil || pa.NumNodes() == 0 || pb.NumNodes() == 0 {
				continue
			}
			if clip, ok := pa.RootMBR().Intersection(pb.RootMBR()); ok {
				parts = append(parts, packedJoinTask{pa: pa, pb: pb, clip: clip})
			}
		}
	}
	return parts
}

// packedJoinSerial runs the whole traversal on the caller's goroutine. With a
// drain it hands every batch over — each full one as it fills, then the last,
// partial one — and returns none.
func packedJoinSerial(ctx context.Context, a, b *Packed, winA, winB *geom.Rect, drain func([]JoinPair)) ([][]JoinPair, error) {
	parts := packedJoinParts(a, b)
	if len(parts) == 0 {
		return nil, nil
	}
	sp := obs.SpanFrom(ctx).Child("rtree.packed_join")
	j := &packedJoinRun{joinState: joinState{ctx: ctx}, winA: winA, winB: winB, drain: drain}
	for _, part := range parts {
		j.pa, j.pb = part.pa, part.pb
		j.join(0, 0, part.clip)
	}
	j.flush(sp, a, b)
	if j.err != nil {
		return nil, j.err
	}
	if drain != nil {
		drain(j.out)
		return nil, nil
	}
	return j.take(), nil
}

// PackedJoinFuncContext streams each intersecting (aID, bID) pair between two
// packed images to emit, with the same synchronized-traversal semantics and
// cancellation behavior as JoinFuncContext on pointer trees: it drains the
// serial run's batches as they fill, so a done context stops the traversal
// with some pairs already emitted and returns its error. Emission order is
// deterministic for identical images, and equal to the concatenation of
// PackedJoinBatches' serial batches.
func PackedJoinFuncContext(ctx context.Context, a, b *Packed, emit func(aID, bID int)) error {
	_, err := packedJoinSerial(ctx, a, b, nil, nil, func(batch []JoinPair) {
		for _, p := range batch {
			emit(p.A, p.B)
		}
	})
	return err
}

// PackedJoinCount returns the number of intersecting pairs between two packed
// images.
func PackedJoinCount(a, b *Packed) int {
	n := 0
	_ = PackedJoinFuncContext(context.Background(), a, b, func(int, int) { n++ })
	return n
}

// taskTargetPerWorker is how many tasks the serial expansion aims to produce
// per worker. More tasks than workers smooths load imbalance between dense
// and sparse regions at negligible expansion cost.
const taskTargetPerWorker = 8

// expandPackedJoinTasks expands the top levels of each part's synchronized
// traversal serially into independent node-pair tasks, breadth-first,
// splitting every expandable task one level on its larger side per round
// until the part has at least target tasks (or only leaf-leaf pairs remain),
// and returns the parts' tasks in part order. Task order is deterministic: it
// depends only on the image shapes, never on scheduling.
//
// visA and visB count the nodes whose children the expansion examined, per
// side, so the caller can fold expansion work into the join's accounting.
func expandPackedJoinTasks(parts []packedJoinTask, target int) (all []packedJoinTask, visA, visB int) {
	for _, root := range parts {
		pa, pb := root.pa, root.pb
		tasks := []packedJoinTask{root}
		for len(tasks) < target {
			next := make([]packedJoinTask, 0, len(tasks)*4)
			expanded := false
			for _, tk := range tasks {
				switch {
				case !pa.leaf[tk.na] && (pb.leaf[tk.nb] || pa.count[tk.na] >= pb.count[tk.nb]):
					visA++
					s, c := pa.start[tk.na], pa.count[tk.na]
					for i := s; i < s+c; i++ {
						if sub, ok := pa.nodeRect(i).Intersection(tk.clip); ok {
							next = append(next, packedJoinTask{pa: pa, pb: pb, na: i, nb: tk.nb, clip: sub})
						}
					}
					expanded = true
				case !pb.leaf[tk.nb]:
					visB++
					s, c := pb.start[tk.nb], pb.count[tk.nb]
					for i := s; i < s+c; i++ {
						if sub, ok := pb.nodeRect(i).Intersection(tk.clip); ok {
							next = append(next, packedJoinTask{pa: pa, pb: pb, na: tk.na, nb: i, clip: sub})
						}
					}
					expanded = true
				default:
					next = append(next, tk)
				}
			}
			tasks = next
			if !expanded {
				break
			}
		}
		all = append(all, tasks...)
	}
	return all, visA, visB
}

// PackedJoinFuncParallelContext is the callback form of PackedJoinBatches for
// consumers that want pairs one at a time: it runs the unwindowed join on a
// pool of workers (one or less is the serial PackedJoinFuncContext, identical
// in behavior and emission order to a direct call) and drains the batches into
// emit in order, so for a given image pair and worker count the emitted
// sequence is deterministic regardless of scheduling — and emit itself is
// always called from the caller's goroutine, never concurrently.
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
		for _, p := range batch {
			emit(p.A, p.B)
		}
	}
	return nil
}
