// Package sdb is a miniature spatial database engine assembled from the
// library's components — the system the paper's concluding section sets as
// future work ("developing a SDBMS incorporating query optimizations based
// on these analysis techniques").
//
// It provides a catalog of spatial tables, each carrying its dataset, a packed
// image of its items, and a Geometric Histogram as optimizer statistics; a
// cost-based planner that orders multi-way spatial intersection joins using GH
// selectivity estimates and prices the first join by the tile runs it sweeps;
// and an executor that runs the chosen plan over the packed images' one grid —
// a tile sweep for the first join, tile probes for every later table.
// Estimates decide the order, exact algorithms produce the answer — the
// division of labor of a real query optimizer.
package sdb

import (
	"fmt"
	"sort"
	"sync"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/rtree"
)

// StatisticsLevel is the GH gridding level used for optimizer statistics —
// the paper's recommended level 7.
const StatisticsLevel = 7

// Table is one spatial relation: its data, its packed image, and its
// optimizer statistics. It is immutable once built and handled by pointer
// (the memo carries once-guards): a write or a replace publishes a new Table.
type Table struct {
	Name string
	Data *dataset.Dataset
	// Index is the pointer R-tree over Packed (rtree.TreeOf): Packed's live
	// items in slot order, 50 to a leaf, cut on its first read — Len reads
	// none. Nothing in this repository's served path reads it, so no served
	// path cuts it (TestLifecycleServedPathCutsNoTree); it is set because the
	// benchmark (bench/) still reads it, and ROADMAP item 1 (c) removes it.
	// Every producer sets it from the Packed it publishes, so it is never
	// built, updated or copied on its own.
	Index *rtree.Tree
	Stats *histogram.GHSummary
	// Packed is the read-optimized image of the table's items — Hilbert-ordered
	// planes under one grid, packed from the items themselves (rtree.PackItems)
	// — and the only index the read path (plan pricing, first join, extension
	// probes) touches: Attach rejects a table without one. Producers build it
	// before the table is attached — BuildTable packs the items it normalizes;
	// the ingest front derives the image from its base and overlay — and the
	// server's Store.Publish only swaps the finished table in.
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
// table creation takes an exclusive lock. A catalog only grows: the server's
// store replaces or drops a table by publishing a new catalog.
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

// BuildTable constructs a table — normalized data, packed image, GH
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
	packed := rtree.PackItems(rtree.ItemsFromRects(nd.Items))
	// The catalog's level was checked when it was made.
	statsRaw, err := histogram.MustGH(c.level).Build(nd)
	if err != nil {
		return nil, fmt.Errorf("sdb: statistics %s: %w", d.Name, err)
	}
	return &Table{Name: d.Name, Data: nd, Index: rtree.TreeOf(packed), Packed: packed,
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
		return fmt.Errorf("sdb: table %q has no packed image (build it with BuildTable, or rtree.PackItems its items, before attaching)", t.Name)
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
