package sdb

import (
	"fmt"
	"sync"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
)

// tableMemo holds what estimators derive from a table and nothing else of
// it: every entry is a pure function of the table value (and, for sel, of
// the partner statistics it names), computed on first use. A table is
// immutable once built and a write publishes a new *Table, so an entry can
// never go stale and none is ever invalidated — it is collected with the
// table it hangs off.
type tableMemo struct {
	liveOnce sync.Once
	live     *dataset.Dataset

	ph, basicGH summaryMemo

	selMu sync.Mutex
	sel   map[string]pairSel
}

type summaryMemo struct {
	once sync.Once
	s    core.Summary
	err  error
}

// pairSel is one planner selectivity: GH's whole-table estimate of the
// owning table against the partner statistics it was computed from.
type pairSel struct {
	partner *histogram.GHSummary
	sel     float64
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

// HistogramSummary returns the table's "ph" or "basicgh" summary at its
// statistics level, built from LiveData by the first call and kept for the
// table's lifetime. Both are fraction-free, so a table has one of each;
// sampling summaries are keyed by a real-valued fraction and are built per
// request. built is the time this call spent building, 0 on a lookup.
func (t *Table) HistogramSummary(method string) (s core.Summary, built time.Duration, err error) {
	var (
		m    *summaryMemo
		tech core.Technique
	)
	switch method {
	case "ph":
		m = &t.memo.ph
		tech, err = histogram.NewPH(t.Stats.Level())
	case "basicgh":
		m = &t.memo.basicGH
		tech, err = histogram.NewBasicGH(t.Stats.Level())
	default:
		err = fmt.Errorf("sdb: no per-table summary for method %q", method)
	}
	if err != nil {
		return nil, 0, err
	}
	m.once.Do(func() {
		start := time.Now()
		d, _ := t.LiveData()
		m.s, m.err = tech.Build(d)
		built = time.Since(start)
	})
	return m.s, built, m.err
}

// pairSelectivity returns gh's whole-table selectivity of t ⋈ partner, in
// that argument order. t remembers one value per partner name, the one
// computed against the newest partner statistics it was asked about: a
// partner that is replaced or written to arrives with new statistics and
// displaces the entry, so a static table planned against a live one holds
// one generation's histogram, not all of them. built is the time a miss
// spent estimating, 0 on a hit.
func (t *Table) pairSelectivity(gh *histogram.GH, partner *Table) (sel float64, built time.Duration, err error) {
	t.memo.selMu.Lock()
	e, ok := t.memo.sel[partner.Name]
	t.memo.selMu.Unlock()
	if ok && e.partner == partner.Stats {
		return e.sel, 0, nil
	}
	start := time.Now()
	est, err := gh.Estimate(t.Stats, partner.Stats)
	if err != nil {
		return 0, 0, err
	}
	t.memo.selMu.Lock()
	if t.memo.sel == nil {
		t.memo.sel = make(map[string]pairSel)
	}
	t.memo.sel[partner.Name] = pairSel{partner: partner.Stats, sel: est.Selectivity}
	t.memo.selMu.Unlock()
	return est.Selectivity, time.Since(start), nil
}
