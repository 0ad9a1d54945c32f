// Package sweep implements a plane-sweep rectangle-intersection join in the
// style of Preparata–Shamos, over inputs it orders with a radix sort. It is
// the library's exact ground-truth join: experiments compute true
// selectivities with it, the benchmark's verifier holds every served query's
// total_rows to its Count, the tests hold every other exact join to it, and it
// doubles as the no-index baseline the paper's "Est. Time 1" scenario builds
// R-trees to beat. It is also a served path: every rs, rswr and ss estimate
// /v1/estimate computes joins its two samples here
// (sample.Technique.Estimate), with no index built for them. No query's rows
// come from it — the executor's join is rtree's tile sweep (CountPackedJoin,
// PackedJoinBatches), a sweep per grid tile over a prebuilt index. With brute force and the pointer R-tree
// join it is one of three independent oracles; keep it index-free and simple.
// It keeps no package-level state, so concurrent calls share nothing.
//
// The algorithm copies each input into MinX order and sweeps a vertical line
// across the plane. When the line reaches a rectangle's left edge, the
// rectangle is checked against the other set's rectangles whose left edges lie
// between the line and its right edge, for y-overlap. The order comes from an
// LSD radix sort over 8-bit digits of an order-preserving integer image of
// MinX, so time is O(d·(n+m) + k·s): d ≤ 8 is the number of digits that differ
// between keys, and s the average number of rectangles a scan visits.
package sweep

import (
	"math"

	"spatialsel/internal/geom"
)

// Pair is one join result: indices into the two input slices.
type Pair struct {
	A, B int
}

// Join returns all intersecting pairs between as and bs (closed-rectangle
// semantics, consistent with geom.Rect.Intersects).
func Join(as, bs []geom.Rect) []Pair {
	var out []Pair
	JoinFunc(as, bs, func(a, b int) { out = append(out, Pair{A: a, B: b}) })
	return out
}

// Count returns the number of intersecting pairs without materializing them.
func Count(as, bs []geom.Rect) int {
	n := 0
	JoinFunc(as, bs, func(int, int) { n++ })
	return n
}

// JoinFunc streams each intersecting pair (index into as, index into bs) to
// emit, in ascending order of the pair's earlier MinX coordinate: the sweep
// reports a pair when it reaches the first of the two left edges, and it
// reaches one side's rectangles of equal MinX in input order. Each input may
// hold at most math.MaxInt32 rectangles.
func JoinFunc(as, bs []geom.Rect, emit func(a, b int)) {
	if len(as) == 0 || len(bs) == 0 {
		return
	}
	// One allocation each for both sides' sorted copies and indices, and
	// one pair of sort buffers that the two sorts take turns with.
	rects := make([]geom.Rect, len(as)+len(bs))
	ids := make([]int32, len(as)+len(bs))
	buf := make([]keyed, 2*max(len(as), len(bs)))
	sa, ia := rects[:len(as)], ids[:len(as)]
	sb, ib := rects[len(as):], ids[len(as):]
	sortByMinX(as, sa, ia, buf)
	sortByMinX(bs, sb, ib, buf)
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		if sa[i].MinX <= sb[j].MinX {
			scan(sa[i], int(ia[i]), sb[j:], ib[j:], emit, false)
			i++
		} else {
			scan(sb[j], int(ib[j]), sa[i:], ia[i:], emit, true)
			j++
		}
	}
}

// keyed is one sort entry: an item's MinX key and its index in the input.
type keyed struct {
	key uint64
	id  int32
}

// minXKey maps x to a uint64 whose unsigned order is x's numeric order: the
// sign bit of a non-negative value is set, and every bit of a negative one is
// flipped. -0 sorts just before +0, which compares equal to it, so a key
// order is a MinX order.
func minXKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortByMinX writes rs into out in ascending MinX order, stable, and each
// written rectangle's index in rs into ids at the same position. buf holds at
// least 2·len(rs) entries, and its contents on return are unspecified.
func sortByMinX(rs, out []geom.Rect, ids []int32, buf []keyed) {
	n := len(rs)
	src, dst := buf[:n], buf[n:2*n]
	var counts [8][256]int
	for i, r := range rs {
		k := minXKey(r.MinX)
		src[i] = keyed{key: k, id: int32(i)}
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for d := range counts {
		c := &counts[d]
		shift := uint(8 * d)
		if c[byte(src[0].key>>shift)] == n {
			continue // every key has this digit: the pass would copy
		}
		sum := 0
		for v, cnt := range c {
			c[v] = sum
			sum += cnt
		}
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	for i, e := range src {
		out[i] = rs[e.id]
		ids[i] = e.id
	}
}

// scan checks pivot p (input index pid) against the candidates cs, in MinX
// order with input indices cids, whose MinX falls within p's x-range,
// emitting y-overlapping pairs. When swapped, the emit argument order is
// reversed so pairs are always (a-index, b-index).
func scan(p geom.Rect, pid int, cs []geom.Rect, cids []int32, emit func(int, int), swapped bool) {
	for k := 0; k < len(cs) && cs[k].MinX <= p.MaxX; k++ {
		c := &cs[k]
		if p.MinY <= c.MaxY && c.MinY <= p.MaxY {
			if swapped {
				emit(int(cids[k]), pid)
			} else {
				emit(pid, int(cids[k]))
			}
		}
	}
}

// Selectivity runs the exact join and returns the paper's selectivity
// metric: |result| / (|as| · |bs|). It returns 0 for empty inputs.
func Selectivity(as, bs []geom.Rect) float64 {
	if len(as) == 0 || len(bs) == 0 {
		return 0
	}
	return float64(Count(as, bs)) / (float64(len(as)) * float64(len(bs)))
}
