package sdb

import (
	"fmt"
	"sync"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/sample"
)

// DefaultSampleFraction is the sampling fraction Table.Estimate uses when a
// sampling method is given fraction 0.
const DefaultSampleFraction = 0.1

// tableMemo holds what estimators derive from a table and nothing else of
// it: every entry is a pure function of the table value (and, for pairs, of
// the partner statistics and fraction it names), computed on first use. A
// table is immutable once built and a write publishes a new *Table, so an
// entry can never go stale and none is ever invalidated — it is collected with
// the table it hangs off.
type tableMemo struct {
	liveOnce sync.Once
	live     *dataset.Dataset

	ph, basicGH summaryMemo

	pairMu sync.Mutex
	pairs  map[pairKey]pairEstimate
}

type summaryMemo struct {
	once sync.Once
	s    core.Summary
	err  error
}

// get returns the table's summary under tech, built from LiveData by the first
// call.
func (m *summaryMemo) get(t *Table, tech core.Technique) (core.Summary, error) {
	m.once.Do(func() {
		d, _ := t.LiveData()
		m.s, m.err = tech.Build(d)
	})
	return m.s, m.err
}

type pairKey struct{ partner, method string }

// pairEstimate is the last estimate of the owning table against one partner
// under one method, with what it was computed from: the partner's statistics
// — a published table value carries its own, so the pointer names the
// partner's generation — and the sampling fraction (0 for the fraction-free
// methods).
type pairEstimate struct {
	partner  *histogram.GHSummary
	fraction float64
	est      core.Estimate
}

// LiveData returns the dataset the build-based estimators summarize and
// sample: Data itself while every id slot is live, otherwise the live items
// in id order. A table published by the ingest path keeps deleted rows in
// Data.Items — ids are slots of an append-only log and are never renumbered —
// so its Data is not its contents; the packed image is. Row access by id
// keeps reading Data.Items. built is the time this call spent building the
// view: 0 unless it is the first on a table with dead slots.
func (t *Table) LiveData() (d *dataset.Dataset, built time.Duration) {
	if t.Packed.Len() == t.Data.Len() {
		return t.Data, 0
	}
	t.memo.liveOnce.Do(func() {
		start := time.Now()
		alive := make([]bool, t.Data.Len())
		t.Packed.VisitItems(func(id int, _ geom.Rect) { alive[id] = true })
		items := make([]geom.Rect, 0, t.Packed.Len())
		for id, r := range t.Data.Items {
			if alive[id] {
				items = append(items, r)
			}
		}
		t.memo.live = dataset.New(t.Name, t.Data.Extent, items)
		built = time.Since(start)
	})
	return t.memo.live, built
}

// Estimate returns method's estimate of t ⋈ partner, in that argument order,
// for any of gh, basicgh, ph, rs, rswr and ss. fraction is the sampling
// fraction: 0 means DefaultSampleFraction for the sampling methods, and the
// others take none. t remembers one estimate per partner name and method, the
// last one computed: a partner that is replaced or written to arrives with new
// statistics, and a new fraction is a new sample, so either displaces the
// entry — a static table estimated against a live one holds one generation's
// statistics per method, not all of them. hit reports an answer from that
// entry; took is the time a miss spent, 0 on a hit. Two concurrent misses
// both compute the same deterministic value.
func (t *Table) Estimate(method string, partner *Table, fraction float64) (est core.Estimate, hit bool, took time.Duration, err error) {
	if partner.Name == t.Name {
		return core.Estimate{}, false, 0, fmt.Errorf("sdb: %s ⋈ %s joins a table with itself", t.Name, partner.Name)
	}
	if _, sampling := samplingMethods[method]; sampling && fraction == 0 {
		fraction = DefaultSampleFraction
	}
	key := pairKey{partner.Name, method}
	t.memo.pairMu.Lock()
	e, ok := t.memo.pairs[key]
	t.memo.pairMu.Unlock()
	if ok && e.partner == partner.Stats && e.fraction == fraction {
		return e.est, true, 0, nil
	}
	start := time.Now()
	x, err := estimatorFor(method, t.Stats.Level(), fraction)
	if err != nil {
		return core.Estimate{}, false, 0, err
	}
	if est, err = x.estimate(t, partner); err != nil {
		return core.Estimate{}, false, 0, err
	}
	t.memo.pairMu.Lock()
	if t.memo.pairs == nil {
		t.memo.pairs = make(map[pairKey]pairEstimate)
	}
	t.memo.pairs[key] = pairEstimate{partner: partner.Stats, fraction: fraction, est: est}
	t.memo.pairMu.Unlock()
	return est, false, time.Since(start), nil
}

var samplingMethods = map[string]sample.Method{"rs": sample.RS, "rswr": sample.RSWR, "ss": sample.SS}

// estimator is how one method reads a table: the technique that estimates and
// the summary of a table it estimates from.
type estimator struct {
	tech    core.Technique
	summary func(*Table) (core.Summary, error)
	// sampling marks rs, rswr and ss, which cannot draw from a table with no
	// live items.
	sampling bool
}

// estimatorFor resolves a method. What an estimator reads of a table is a
// function of the table value, so the table holds it: gh reads the statistics
// the table was published with, ph and basicgh the table's own summary (built
// by the first estimate that wants it), and the sampling methods draw from the
// table's live data with seed 1 — fresh per estimate, since their summaries
// are keyed by a real-valued fraction, but striding a Hilbert order the
// dataset computes once — and build no index. A sampling estimate against a
// table with no live items draws nothing: the join is empty, so it answers
// the exact 0.
func estimatorFor(method string, level int, fraction float64) (x estimator, err error) {
	switch method {
	case "gh":
		x.tech, err = histogram.NewGH(level)
		x.summary = func(t *Table) (core.Summary, error) { return t.Stats, nil }
	case "ph":
		x.tech, err = histogram.NewPH(level)
		x.summary = func(t *Table) (core.Summary, error) { return t.memo.ph.get(t, x.tech) }
	case "basicgh":
		x.tech, err = histogram.NewBasicGH(level)
		x.summary = func(t *Table) (core.Summary, error) { return t.memo.basicGH.get(t, x.tech) }
	case "rs", "rswr", "ss":
		// A fixed seed keeps sampling estimates deterministic: the same
		// request always sees the same answer, so it can be remembered.
		x.tech, err = sample.New(samplingMethods[method], fraction, sample.WithSeed(1))
		x.summary = func(t *Table) (core.Summary, error) {
			d, _ := t.LiveData()
			return x.tech.Build(d)
		}
		x.sampling = true
		return x, err
	default:
		return x, fmt.Errorf("unknown estimation method %q (want gh, basicgh, ph, rs, rswr, ss)", method)
	}
	if err == nil && fraction != 0 {
		err = fmt.Errorf("sdb: method %s takes no sampling fraction, got %g", method, fraction)
	}
	return x, err
}

func (x estimator) estimate(a, b *Table) (core.Estimate, error) {
	if la, lb := a.Len(), b.Len(); x.sampling && (la == 0 || lb == 0) {
		return core.NewEstimate(0, la, lb), nil
	}
	sa, err := x.summary(a)
	if err != nil {
		return core.Estimate{}, err
	}
	sb, err := x.summary(b)
	if err != nil {
		return core.Estimate{}, err
	}
	return x.tech.Estimate(sa, sb)
}
