// Package sdb is a miniature spatial database engine assembled from the
// library's components — the system the paper's concluding section sets as
// future work ("developing a SDBMS incorporating query optimizations based
// on these analysis techniques").
//
// It provides a catalog of spatial tables, each carrying its dataset, an
// R-tree index with its packed image, and a Geometric Histogram as optimizer
// statistics; a cost-based planner that orders multi-way spatial intersection
// joins using GH selectivity estimates and the analytic I/O model; and an
// executor that runs the chosen plan over the packed images' one grid — a
// tile sweep for the first join, tile probes for every later table. Estimates
// decide the order, exact algorithms produce the answer — the division of
// labor of a real query optimizer.
package sdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/rtree"
)

// StatisticsLevel is the GH gridding level used for optimizer statistics —
// the paper's recommended level 7.
const StatisticsLevel = 7

// The parallel GH build pays off only when there is enough per-item work to
// amortize the goroutine fan-out and the per-worker cell-table merge: the
// measured crossover is around 10⁵ items on grids of level ≥ 6 (see
// histogram.BenchmarkGHBuildParallel). Below either bound the serial build
// wins and BuildTable uses it.
const (
	ghParallelMinItems = 100_000
	ghParallelMinLevel = 6
)

// Table is one spatial relation: its data, its R-tree index, and its
// optimizer statistics. It is immutable once built and handled by pointer
// (the memo carries once-guards): a write or a replace publishes a new Table.
type Table struct {
	Name  string
	Data  *dataset.Dataset
	Index *rtree.Tree
	Stats *histogram.GHSummary
	// Packed is the read-optimized image of Index's items — Hilbert-ordered
	// planes under one grid, plus the level statistics of the tree it was
	// packed from — and the only index the read path (plan pricing, first
	// join, extension probes) touches: Attach rejects a table without one. It
	// must hold exactly Index's items. Producers build both before the table
	// is attached — BuildTable packs the tree it bulk-loads; the ingest front
	// derives the image from its base and overlay and clones the tree that
	// absorbed the same batches — and the server's Store.Publish only swaps
	// the finished table in.
	Packed *rtree.Packed
	// RawExtent is the dataset's extent before normalization to the unit
	// square. The live-ingest path uses it to map incoming rectangles (given
	// in the table's original coordinate space) onto the normalized space the
	// index and statistics live in; a zero rect means the table was built
	// from pre-normalized data.
	RawExtent geom.Rect

	memo tableMemo
}

// Len returns the table's cardinality: the items its packed image holds. On
// a table the ingest path published that is the live count, not the length of
// Data.Items, which keeps a slot for every id ever assigned.
func (t *Table) Len() int { return t.Packed.Len() }

// Catalog is a named collection of tables. It is safe for concurrent reads;
// table creation and removal take an exclusive lock.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	level  int
}

// NewCatalog returns an empty catalog using StatisticsLevel histograms.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table), level: StatisticsLevel}
}

// NewCatalogAtLevel returns a catalog whose statistics use the given GH
// level (useful for tests and small datasets).
func NewCatalogAtLevel(level int) (*Catalog, error) {
	if _, err := histogram.NewGrid(level); err != nil {
		return nil, err
	}
	return &Catalog{tables: make(map[string]*Table), level: level}, nil
}

// BuildTable constructs a table — normalized data, R-tree index, GH
// statistics — without registering it in the catalog. The heavy work runs
// without any catalog lock, so callers can build concurrently and Attach the
// result; this is what copy-on-write stores layered above the catalog use.
func (c *Catalog) BuildTable(d *dataset.Dataset) (*Table, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("sdb: dataset has no name")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("sdb: %w", err)
	}
	nd := d.Normalize()
	index, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(nd.Items))
	if err != nil {
		return nil, fmt.Errorf("sdb: index %s: %w", d.Name, err)
	}
	var statsRaw core.Summary
	if nd.Len() >= ghParallelMinItems && c.level >= ghParallelMinLevel {
		statsRaw, err = histogram.BuildGHParallel(nd, c.level, 0)
	} else {
		var gh *histogram.GH
		if gh, err = histogram.NewGH(c.level); err != nil {
			return nil, err
		}
		statsRaw, err = gh.Build(nd)
	}
	if err != nil {
		return nil, fmt.Errorf("sdb: statistics %s: %w", d.Name, err)
	}
	// The bulk-built index never mutates after this point, so the packed
	// image built here stays valid for the table's lifetime.
	return &Table{Name: d.Name, Data: nd, Index: index, Packed: rtree.Pack(index),
		Stats: statsRaw.(*histogram.GHSummary), RawExtent: d.Extent}, nil
}

// Attach registers a pre-built table (from BuildTable, or carried over from
// another catalog snapshot). The table's statistics must match the catalog's
// level, and it must carry its packed image.
func (c *Catalog) Attach(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("sdb: table has no name")
	}
	if t.Packed == nil {
		return fmt.Errorf("sdb: table %q has no packed image (build it with BuildTable, or rtree.Pack its index, before attaching)", t.Name)
	}
	if t.Stats.Level() != c.level {
		return fmt.Errorf("sdb: table %q statistics at level %d, catalog at level %d",
			t.Name, t.Stats.Level(), c.level)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("sdb: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// Create registers a dataset as a table, building its index and statistics.
// The dataset is normalized to the unit square first, so all tables share a
// coordinate space. The table name comes from the dataset.
func (c *Catalog) Create(d *dataset.Dataset) (*Table, error) {
	t, err := c.BuildTable(d)
	if err != nil {
		return nil, err
	}
	if err := c.Attach(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Drop removes a table, reporting whether it existed.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return false
	}
	delete(c.tables, name)
	return true
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("sdb: unknown table %q (have %v)", name, c.namesLocked())
	}
	return t, nil
}

// Names lists the catalog's tables in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.namesLocked()
}

func (c *Catalog) namesLocked() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StatisticsLevelUsed returns the GH level this catalog builds statistics
// at.
func (c *Catalog) StatisticsLevelUsed() int { return c.level }

// Save persists every table (dataset + histogram) under dir, one pair of
// files per table. Indexes are rebuilt on load rather than stored, like most
// database bulk-load paths.
func (c *Catalog) Save(dir string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, t := range c.tables {
		if err := dataset.SaveFile(filepath.Join(dir, name+".sds"), t.Data); err != nil {
			return fmt.Errorf("sdb: save %s: %w", name, err)
		}
		if err := histogram.SaveSummary(filepath.Join(dir, name+".shf"), t.Stats); err != nil {
			return fmt.Errorf("sdb: save %s stats: %w", name, err)
		}
	}
	return nil
}

// Load restores a catalog saved with Save, rebuilding indexes.
func Load(dir string, level int) (*Catalog, error) {
	c, err := NewCatalogAtLevel(level)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".sds" {
			continue
		}
		d, err := dataset.LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("sdb: load %s: %w", e.Name(), err)
		}
		if _, err := c.Create(d); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// EstimateJoinSize predicts the result cardinality of tableA ⋈ tableB from
// statistics alone.
func (c *Catalog) EstimateJoinSize(a, b string) (float64, error) {
	ta, err := c.Table(a)
	if err != nil {
		return 0, err
	}
	tb, err := c.Table(b)
	if err != nil {
		return 0, err
	}
	gh, err := histogram.NewGH(c.level)
	if err != nil {
		return 0, err
	}
	est, err := gh.Estimate(ta.Stats, tb.Stats)
	if err != nil {
		return 0, err
	}
	return est.PairCount, nil
}

// EstimateRangeCount predicts how many of a table's items intersect the
// window.
func (c *Catalog) EstimateRangeCount(table string, window geom.Rect) (float64, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	return t.Stats.EstimateRange(window), nil
}
