package rtree

import (
	"context"
	"sort"

	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
)

// joinCounters is one kernel family's engine-level counter set. Each
// traversal accumulates into plain ints on its joinState and flushes here
// once at the end, so the hot path pays no atomics per node or per pair.
type joinCounters struct {
	joins, nodeVisits, leafCompares, outputPairs, cancelPolls *obs.Counter
}

var pointerJoinCounters = joinCounters{
	joins: obs.Default.Counter("rtree_joins_total",
		"Synchronized R-tree joins started."),
	nodeVisits: obs.Default.Counter("rtree_join_node_visits_total",
		"R-tree nodes visited by synchronized joins."),
	leafCompares: obs.Default.Counter("rtree_join_leaf_compares_total",
		"Candidate MBR pairs examined by the join plane sweep."),
	outputPairs: obs.Default.Counter("rtree_join_output_pairs_total",
		"Intersecting pairs emitted by synchronized joins."),
	cancelPolls: obs.Default.Counter("rtree_join_cancel_polls_total",
		"Context cancellation polls performed by synchronized joins."),
}

// JoinPair is one result of a spatial join: the IDs of an intersecting pair,
// A from the left tree and B from the right tree.
type JoinPair struct {
	A, B int
}

// Join computes the spatial intersection join of two R-trees using the
// synchronized depth-first traversal of Brinkhoff, Kriegel and Seeger,
// including their two CPU optimizations: restricting each node pair's work
// to the intersection of their MBRs, and sweeping entries in x-order instead
// of nested loops.
func Join(a, b *Tree) []JoinPair {
	var out []JoinPair
	JoinFunc(a, b, func(pa, pb int) {
		out = append(out, JoinPair{A: pa, B: pb})
	})
	return out
}

// JoinCount returns only the number of intersecting pairs. This is the
// operation selectivity estimation approximates.
func JoinCount(a, b *Tree) int {
	n := 0
	JoinFunc(a, b, func(int, int) { n++ })
	return n
}

// JoinFunc streams each intersecting (aID, bID) pair to emit. Pair order is
// deterministic for identical trees but otherwise unspecified.
func JoinFunc(a, b *Tree, emit func(aID, bID int)) {
	_ = JoinFuncContext(context.Background(), a, b, emit)
}

// cancelCheckInterval is how many node visits pass between context polls
// during a join — one "batch" of traversal work. Small enough that a
// cancelled join stops within microseconds, large enough that ctx.Err()
// stays off the hot path.
const cancelCheckInterval = 32

// JoinFuncContext is JoinFunc with cancellation: the context is polled once
// per batch of node visits and, when it is done, the traversal stops and the
// context's error is returned. A nil error means the join ran to completion.
func JoinFuncContext(ctx context.Context, a, b *Tree, emit func(aID, bID int)) error {
	pointerJoinCounters.joins.Inc()
	if a.root == nil || b.root == nil {
		return nil
	}
	ra, rb := a.root.mbr(), b.root.mbr()
	clip, ok := ra.Intersection(rb)
	if !ok {
		return nil
	}
	sp := obs.SpanFrom(ctx).Child("rtree.join")
	j := &joinRun{joinState: joinState{ctx: ctx}, ta: a, tb: b}
	j.emit = func(pa, pb int) {
		j.pairs++
		emit(pa, pb)
	}
	j.joinNodes(a.root, b.root, clip)
	j.flush(&pointerJoinCounters, sp)
	return j.err
}

// joinState is what one join traversal carries whatever the node
// representation (pointer tree or packed image): the cancellation context
// with its visit counter, and the work totals flushed once at the end.
type joinState struct {
	ctx      context.Context
	visits   int
	polls    int
	compares int
	pairs    int
	err      error
}

// cancelled counts one node-pair visit and polls the run's context every
// cancelCheckInterval of them; once the context is done the run's error
// latches and every subsequent call short-circuits true.
func (s *joinState) cancelled() bool {
	if s.err != nil {
		return true
	}
	if s.ctx == nil {
		return false
	}
	s.visits++
	if s.visits%cancelCheckInterval == 0 {
		s.polls++
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return true
		}
	}
	return false
}

// flush adds the traversal's totals to its kernel family's counters and
// closes the join's span (nil when the context carries no trace) with the
// same totals as attributes.
func (s *joinState) flush(c *joinCounters, sp *obs.Span) {
	c.nodeVisits.Add(uint64(s.visits))
	c.leafCompares.Add(uint64(s.compares))
	c.outputPairs.Add(uint64(s.pairs))
	c.cancelPolls.Add(uint64(s.polls))
	if sp != nil {
		sp.Set("node_visits", float64(s.visits))
		sp.Set("leaf_compares", float64(s.compares))
		sp.Set("output_pairs", float64(s.pairs))
		sp.Set("cancel_polls", float64(s.polls))
		sp.End()
	}
}

// joinRun is one synchronized traversal of two pointer trees: the shared
// state, the trees (for access accounting) and the emit callback.
type joinRun struct {
	joinState
	ta, tb *Tree
	emit   func(int, int)
}

// joinNodes joins two nodes known to have intersecting MBRs; clip is the
// intersection of their MBRs — entries outside it cannot contribute.
func (j *joinRun) joinNodes(na, nb *node, clip geom.Rect) {
	if j.cancelled() {
		return
	}
	j.ta.touch(na)
	j.tb.touch(nb)
	switch {
	case na.leaf && nb.leaf:
		sweepEntries(na.entries, nb.entries, clip, &j.compares, func(ea, eb *entry) {
			j.emit(ea.id, eb.id)
		})
	case na.leaf:
		// Descend only b.
		for i := range nb.entries {
			e := &nb.entries[i]
			if sub, ok := e.rect.Intersection(clip); ok {
				j.joinLeafNode(na, e.child, sub, false)
			}
		}
	case nb.leaf:
		for i := range na.entries {
			e := &na.entries[i]
			if sub, ok := e.rect.Intersection(clip); ok {
				j.joinLeafNode(nb, e.child, sub, true)
			}
		}
	default:
		sweepEntries(na.entries, nb.entries, clip, &j.compares, func(ea, eb *entry) {
			if sub, ok := ea.rect.Intersection(eb.rect); ok {
				j.joinNodes(ea.child, eb.child, sub)
			}
		})
	}
}

// joinLeafNode joins a leaf against a subtree of the other tree (handles
// trees of different heights). If swapped, leaf entries come from tree b and
// emit arguments are reversed.
func (j *joinRun) joinLeafNode(leaf, sub *node, clip geom.Rect, swapped bool) {
	if j.cancelled() {
		return
	}
	if swapped {
		j.ta.touch(sub)
	} else {
		j.tb.touch(sub)
	}
	if sub.leaf {
		sweepEntries(leaf.entries, sub.entries, clip, &j.compares, func(el, es *entry) {
			if swapped {
				j.emit(es.id, el.id)
			} else {
				j.emit(el.id, es.id)
			}
		})
		return
	}
	for i := range sub.entries {
		e := &sub.entries[i]
		if c, ok := e.rect.Intersection(clip); ok {
			j.joinLeafNode(leaf, e.child, c, swapped)
		}
	}
}

// sweepEntries reports all intersecting entry pairs between two entry lists,
// considering only entries that intersect clip, via a plane sweep over MinX.
// compares, when non-nil, accumulates how many candidate pairs the sweep
// examined (the join's CPU-work proxy).
func sweepEntries(as, bs []entry, clip geom.Rect, compares *int, report func(*entry, *entry)) {
	fa := filterByClip(as, clip)
	fb := filterByClip(bs, clip)
	if len(fa) == 0 || len(fb) == 0 {
		return
	}
	sort.Slice(fa, func(i, j int) bool { return fa[i].rect.MinX < fa[j].rect.MinX })
	sort.Slice(fb, func(i, j int) bool { return fb[i].rect.MinX < fb[j].rect.MinX })
	i, j := 0, 0
	for i < len(fa) && j < len(fb) {
		if fa[i].rect.MinX <= fb[j].rect.MinX {
			sweepOne(fa[i], fb, j, compares, report, false)
			i++
		} else {
			sweepOne(fb[j], fa, i, compares, report, true)
			j++
		}
	}
}

// sweepOne scans candidates from index start while their MinX is within
// pivot's x-range, reporting y-overlaps.
func sweepOne(pivot *entry, candidates []*entry, start int, compares *int, report func(*entry, *entry), swapped bool) {
	maxX := pivot.rect.MaxX
	for k := start; k < len(candidates) && candidates[k].rect.MinX <= maxX; k++ {
		c := candidates[k]
		if compares != nil {
			*compares++
		}
		if pivot.rect.MinY <= c.rect.MaxY && c.rect.MinY <= pivot.rect.MaxY {
			if swapped {
				report(c, pivot)
			} else {
				report(pivot, c)
			}
		}
	}
}

func filterByClip(es []entry, clip geom.Rect) []*entry {
	out := make([]*entry, 0, len(es))
	for i := range es {
		if es[i].rect.Intersects(clip) {
			out = append(out, &es[i])
		}
	}
	return out
}
