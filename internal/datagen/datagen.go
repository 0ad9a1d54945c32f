// Package datagen generates the synthetic datasets used in the paper's
// evaluation and statistical stand-ins for its real datasets.
//
// The paper evaluates on TIGER/Line extracts (streams, census blocks,
// California roads), the Sequoia 2000 benchmark (points and polygons), and
// two purpose-built synthetic sets (SCRC, SURA). The real extracts are not
// available offline, so this package simulates them: random-walk polyline
// traces stand in for streams/roads (elongated, thin, spatially clustered
// MBRs), recursive space tiling stands in for census blocks (small,
// non-overlapping, space-covering MBRs of varying density), and
// landmark-clustered points / heavy-tailed polygons stand in for Sequoia.
// What matters to the estimators under study is the spatial distribution
// (skew, clustering) and the size distribution of the MBRs — both are
// reproduced; see DESIGN.md for the substitution rationale.
//
// Every generator is deterministic given its seed.
package datagen

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// tilingLeaf and tilingHeap implement the max-heap behind PolygonTiling.
type tilingLeaf struct {
	rect  geom.Rect
	score float64
}

type tilingHeap struct{ items []tilingLeaf }

func (h *tilingHeap) Len() int           { return len(h.items) }
func (h *tilingHeap) Less(i, j int) bool { return h.items[i].score > h.items[j].score }
func (h *tilingHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *tilingHeap) Push(x interface{}) { h.items = append(h.items, x.(tilingLeaf)) }
func (h *tilingHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	l := old[n-1]
	h.items = old[:n-1]
	return l
}

// clampRect confines r to the unit square, preserving validity.
func clampRect(r geom.Rect) geom.Rect {
	c := geom.Rect{
		MinX: math.Max(0, math.Min(r.MinX, 1)),
		MinY: math.Max(0, math.Min(r.MinY, 1)),
		MaxX: math.Max(0, math.Min(r.MaxX, 1)),
		MaxY: math.Max(0, math.Min(r.MaxY, 1)),
	}
	if c.MinX > c.MaxX {
		c.MinX, c.MaxX = c.MaxX, c.MinX
	}
	if c.MinY > c.MaxY {
		c.MinY, c.MaxY = c.MaxY, c.MinY
	}
	return c
}

// Uniform generates n rectangles whose centers are uniform in the unit
// square and whose widths and heights are uniform in (0, maxSize]. This is
// the paper's SURA construction.
func Uniform(name string, n int, maxSize float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Rect, n)
	for i := range items {
		w := rng.Float64() * maxSize
		h := rng.Float64() * maxSize
		cx := rng.Float64()
		cy := rng.Float64()
		items[i] = clampRect(geom.NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2))
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// Cluster generates n rectangles whose centers follow a 2-D Gaussian around
// (cx, cy) with standard deviation sigma (clamped into the unit square) and
// whose sizes are uniform in (0, maxSize]. The paper's SCRC is
// Cluster(n=100000, cx=0.4, cy=0.7).
func Cluster(name string, n int, cx, cy, sigma, maxSize float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Rect, n)
	for i := range items {
		x := cx + rng.NormFloat64()*sigma
		y := cy + rng.NormFloat64()*sigma
		w := rng.Float64() * maxSize
		h := rng.Float64() * maxSize
		items[i] = clampRect(geom.NewRect(x-w/2, y-h/2, x+w/2, y+h/2))
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// MultiCluster generates n rectangles distributed over k Gaussian clusters
// with randomly chosen centers and weights. It models multi-modal skew
// (cities along a coastline, say) that neither Uniform nor a single Cluster
// captures.
func MultiCluster(name string, n, k int, sigma, maxSize float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	type clusterSpec struct {
		cx, cy, weight float64
	}
	specs := make([]clusterSpec, k)
	var total float64
	for i := range specs {
		specs[i] = clusterSpec{
			cx:     0.1 + rng.Float64()*0.8,
			cy:     0.1 + rng.Float64()*0.8,
			weight: 0.2 + rng.Float64(),
		}
		total += specs[i].weight
	}
	items := make([]geom.Rect, n)
	for i := range items {
		// Pick a cluster proportionally to weight.
		t := rng.Float64() * total
		var s clusterSpec
		for _, cand := range specs {
			if t -= cand.weight; t <= 0 {
				s = cand
				break
			}
			s = cand
		}
		x := s.cx + rng.NormFloat64()*sigma
		y := s.cy + rng.NormFloat64()*sigma
		w := rng.Float64() * maxSize
		h := rng.Float64() * maxSize
		items[i] = clampRect(geom.NewRect(x-w/2, y-h/2, x+w/2, y+h/2))
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// Diagonal generates n rectangles whose centers lie near the main diagonal
// with Gaussian spread — a correlated layout useful for join experiments
// where the two datasets overlap only along a band.
func Diagonal(name string, n int, spread, maxSize float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Rect, n)
	for i := range items {
		t := rng.Float64()
		x := t + rng.NormFloat64()*spread
		y := t + rng.NormFloat64()*spread
		w := rng.Float64() * maxSize
		h := rng.Float64() * maxSize
		items[i] = clampRect(geom.NewRect(x-w/2, y-h/2, x+w/2, y+h/2))
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// PolylineTrace simulates TIGER-style linear features (streams, roads): it
// runs several random walks across the extent and emits the MBR of each walk
// segment. Segment MBRs are small, thin, elongated, and strongly clustered
// along the walk paths — the spatial signature of street/hydrography data.
//
// walks is the number of independent walks; n is the total number of segment
// MBRs produced (distributed round-robin over the walks); stepLen controls
// segment length.
func PolylineTrace(name string, n, walks int, stepLen float64, seed int64) *dataset.Dataset {
	if walks < 1 {
		walks = 1
	}
	rng := rand.New(rand.NewSource(seed))
	type walker struct {
		x, y, dir float64
	}
	ws := make([]walker, walks)
	for i := range ws {
		ws[i] = walker{x: rng.Float64(), y: rng.Float64(), dir: rng.Float64() * 2 * math.Pi}
	}
	items := make([]geom.Rect, 0, n)
	for len(items) < n {
		w := &ws[len(items)%walks]
		// Meander: small random turning angle keeps paths road-like.
		w.dir += rng.NormFloat64() * 0.5
		length := stepLen * (0.25 + rng.Float64()*1.5)
		nx := w.x + math.Cos(w.dir)*length
		ny := w.y + math.Sin(w.dir)*length
		// Reflect at the boundary so walks stay inside the extent.
		if nx < 0 || nx > 1 {
			w.dir = math.Pi - w.dir
			nx = math.Max(0, math.Min(1, nx))
		}
		if ny < 0 || ny > 1 {
			w.dir = -w.dir
			ny = math.Max(0, math.Min(1, ny))
		}
		items = append(items, clampRect(geom.NewRect(w.x, w.y, nx, ny)))
		w.x, w.y = nx, ny
		// Occasionally jump to start a new feature in a populated area
		// (tributaries, side streets), biased toward existing walkers.
		if rng.Float64() < 0.002 {
			src := ws[rng.Intn(walks)]
			w.x = math.Max(0, math.Min(1, src.x+rng.NormFloat64()*0.05))
			w.y = math.Max(0, math.Min(1, src.y+rng.NormFloat64()*0.05))
			w.dir = rng.Float64() * 2 * math.Pi
		}
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// PolygonTiling simulates census-block-style polygon MBRs: it recursively
// subdivides the extent into cells, splitting more finely where a density
// field (a mixture of Gaussians) is higher, and emits each leaf cell shrunk
// by a small random margin. The result covers the space with largely
// non-overlapping rectangles whose sizes vary inversely with local density —
// exactly the structure of census blocks (small downtown, large rural).
func PolygonTiling(name string, n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	// Density field: a few population centers.
	type center struct{ x, y, w float64 }
	centers := make([]center, 5)
	for i := range centers {
		centers[i] = center{x: rng.Float64(), y: rng.Float64(), w: 0.5 + rng.Float64()}
	}
	density := func(x, y float64) float64 {
		d := 0.05
		for _, c := range centers {
			dx, dy := x-c.x, y-c.y
			d += c.w * math.Exp(-(dx*dx+dy*dy)/0.02)
		}
		return d
	}
	// Recursive split driven by a max-heap on density·area: always split the
	// currently heaviest leaf until there are n leaves. The heap keeps this
	// O(n log n), which matters at the paper's 557k-block cardinality.
	score := func(r geom.Rect) float64 {
		c := r.Center()
		return density(c.X, c.Y) * r.Area()
	}
	h := &tilingHeap{items: []tilingLeaf{{rect: geom.UnitSquare, score: score(geom.UnitSquare)}}}
	for h.Len() < n {
		r := heap.Pop(h).(tilingLeaf).rect
		// Split along the longer axis at a jittered midpoint.
		frac := 0.35 + rng.Float64()*0.3
		var a, b geom.Rect
		if r.Width() >= r.Height() {
			mid := r.MinX + r.Width()*frac
			a = geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: mid, MaxY: r.MaxY}
			b = geom.Rect{MinX: mid, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
		} else {
			mid := r.MinY + r.Height()*frac
			a = geom.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: mid}
			b = geom.Rect{MinX: r.MinX, MinY: mid, MaxX: r.MaxX, MaxY: r.MaxY}
		}
		heap.Push(h, tilingLeaf{rect: a, score: score(a)})
		heap.Push(h, tilingLeaf{rect: b, score: score(b)})
	}
	leaves := make([]geom.Rect, h.Len())
	for i, l := range h.items {
		leaves[i] = l.rect
	}
	// Shrink each leaf slightly (blocks don't quite touch) and jitter.
	items := make([]geom.Rect, len(leaves))
	for i, r := range leaves {
		mx := r.Width() * 0.05 * rng.Float64()
		my := r.Height() * 0.05 * rng.Float64()
		items[i] = clampRect(geom.Rect{
			MinX: r.MinX + mx, MinY: r.MinY + my,
			MaxX: r.MaxX - mx, MaxY: r.MaxY - my,
		})
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// Points generates n degenerate (zero-area) rectangles clustered around
// landmark locations, simulating the Sequoia point-of-interest set.
func Points(name string, n, landmarks int, sigma float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	type lm struct{ x, y float64 }
	lms := make([]lm, landmarks)
	for i := range lms {
		lms[i] = lm{x: rng.Float64(), y: rng.Float64()}
	}
	items := make([]geom.Rect, n)
	for i := range items {
		var x, y float64
		if rng.Float64() < 0.8 && landmarks > 0 {
			l := lms[rng.Intn(landmarks)]
			x = l.x + rng.NormFloat64()*sigma
			y = l.y + rng.NormFloat64()*sigma
		} else {
			x, y = rng.Float64(), rng.Float64()
		}
		x = math.Max(0, math.Min(1, x))
		y = math.Max(0, math.Min(1, y))
		items[i] = geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// HeavyTailedPolygons generates n rectangles whose sizes follow a Pareto-like
// heavy tail (many small, a few very large), clustered like Points. It
// simulates the Sequoia polygon layer (land-use polygons range from city
// blocks to national forests).
func HeavyTailedPolygons(name string, n, landmarks int, sigma, minSize, alpha float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	type lm struct{ x, y float64 }
	lms := make([]lm, landmarks)
	for i := range lms {
		lms[i] = lm{x: rng.Float64(), y: rng.Float64()}
	}
	paretoSize := func() float64 {
		// Inverse-CDF sampling of a Pareto(minSize, alpha), capped at 0.3 so
		// one polygon cannot dominate the whole extent.
		s := minSize / math.Pow(1-rng.Float64(), 1/alpha)
		return math.Min(s, 0.3)
	}
	items := make([]geom.Rect, n)
	for i := range items {
		var x, y float64
		if rng.Float64() < 0.7 && landmarks > 0 {
			l := lms[rng.Intn(landmarks)]
			x = l.x + rng.NormFloat64()*sigma
			y = l.y + rng.NormFloat64()*sigma
		} else {
			x, y = rng.Float64(), rng.Float64()
		}
		w, h := paretoSize(), paretoSize()
		items[i] = clampRect(geom.NewRect(x-w/2, y-h/2, x+w/2, y+h/2))
	}
	return dataset.New(name, geom.UnitSquare, items)
}

// ItemSize is the maximum item extent sdbd generates tables with, and
// `spatialsel generate`'s default -size.
const ItemSize = 0.005

// Generate builds the synthetic dataset of the named kind — the one dispatch
// behind sdbd's generator specs and `spatialsel generate`.
// maxSize bounds item extents for the kinds that take one (uniform, cluster,
// multicluster, diagonal); the others fix their own shape. n is not bounded
// here: callers facing untrusted input validate it first.
func Generate(kind, name string, n int, maxSize float64, seed int64) (*dataset.Dataset, error) {
	switch kind {
	case "uniform":
		return Uniform(name, n, maxSize, seed), nil
	case "cluster":
		return Cluster(name, n, 0.4, 0.6, 0.1, maxSize, seed), nil
	case "multicluster":
		return MultiCluster(name, n, 5, 0.05, maxSize, seed), nil
	case "diagonal":
		return Diagonal(name, n, 0.05, maxSize, seed), nil
	case "polyline":
		return PolylineTrace(name, n, 50, 0.004, seed), nil
	case "tiling":
		return PolygonTiling(name, n, seed), nil
	case "points":
		return Points(name, n, 20, 0.04, seed), nil
	case "polygons":
		return HeavyTailedPolygons(name, n, 20, 0.05, 0.002, 1.4, seed), nil
	}
	return nil, fmt.Errorf("unknown generator kind %q (want uniform, cluster, multicluster, diagonal, polyline, tiling, points, polygons)", kind)
}
