// Package server exposes the miniature spatial database — catalog, GH
// statistics, planner, executor — as a concurrent HTTP JSON API. The paper's
// selling point is that a GH estimate costs ~1% of the join it predicts;
// this layer puts that property behind a network endpoint that answers "how
// big is this join?" at interactive latency — an estimate is computed once per
// pair of table generations and remembered on the table (sdb.Table.Estimate) —
// with per-request timeouts threaded into the join executor as context
// cancellation, and stdlib-only metrics.
package server

import (
	"errors"
	"fmt"
	"sync"

	"spatialsel/internal/dataset"
	"spatialsel/internal/ingest"
	"spatialsel/internal/sdb"
)

// Snapshot is an immutable view of the store at one point in time: a catalog
// whose table set never changes, plus the generation number of each table.
// Handlers grab a snapshot once, then run estimate/plan/execute on it without
// holding any lock — registrations happening meanwhile produce new snapshots
// and never mutate this one.
type Snapshot struct {
	Catalog *sdb.Catalog
	gens    map[string]uint64
}

// Generation returns the table's registration generation (0 if absent).
// Generations increase monotonically across the whole store, so a replaced or
// written table always carries a new generation; clients read it to tell two
// versions of a table apart (TableInfo, MutateResponse).
func (s *Snapshot) Generation(name string) uint64 { return s.gens[name] }

// ErrTableExists is wrapped by Register when the name is taken and replace is
// false; any other Register error means the dataset did not build.
var ErrTableExists = errors.New("table already exists")

// Store wraps the sdb catalog with copy-on-write registration. Reads take a
// brief RLock to fetch the current snapshot pointer; writes build the new
// table outside any lock, then swap in a fresh catalog containing the old
// tables plus the change. In-flight requests keep the snapshot they started
// with.
type Store struct {
	mu      sync.RWMutex
	snap    *Snapshot
	level   int
	nextGen uint64
}

// NewStore returns an empty store building statistics at the given GH level.
func NewStore(level int) (*Store, error) {
	c, err := sdb.NewCatalogAtLevel(level)
	if err != nil {
		return nil, err
	}
	return &Store{
		snap:  &Snapshot{Catalog: c, gens: map[string]uint64{}},
		level: level,
	}, nil
}

// Level returns the GH statistics level used for every table.
func (s *Store) Level() int { return s.level }

// Snapshot returns the current immutable view.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap
}

// Register builds a table from the dataset and installs it under the
// dataset's name. With replace false a duplicate name is an error; with
// replace true an existing table is swapped out atomically. The returned
// generation uniquely identifies this registration.
//
// The name becomes the table's WAL file name on its first write, so a name
// that cannot be one (the empty one included) is refused here, on every path
// that registers a table — HTTP create and sdbd -load alike — instead of
// failing that write with a server fault.
func (s *Store) Register(d *dataset.Dataset, replace bool) (*sdb.Table, uint64, error) {
	if err := ingest.CheckTableName(d.Name); err != nil {
		return nil, 0, err
	}
	// Heavy work (normalize, pack, histogram build) runs lock-free on a
	// scratch catalog at the store's level.
	scratch, err := sdb.NewCatalogAtLevel(s.level)
	if err != nil {
		return nil, 0, err
	}
	t, err := scratch.BuildTable(d)
	if err != nil {
		return nil, 0, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap
	if _, exists := old.gens[t.Name]; exists && !replace {
		return nil, 0, fmt.Errorf("server: table %q: %w (set replace to swap it)", t.Name, ErrTableExists)
	}
	next, err := s.rebuildLocked(old, t.Name)
	if err != nil {
		return nil, 0, err
	}
	if err := next.Catalog.Attach(t); err != nil {
		return nil, 0, err
	}
	s.nextGen++
	gen := s.nextGen
	next.gens[t.Name] = gen
	s.snap = next
	return t, gen, nil
}

// Publish installs a pre-built table, replacing any table of the same name,
// and returns the new generation. This is the live-ingest publication path:
// the ingest layer builds the table snapshot (shared items view, packed base
// under its overlay, fresh statistics) outside any store lock, and Publish
// only performs the copy-on-write snapshot swap plus the generation bump. The
// new table value starts with empty memos and carries new statistics, so no
// estimate computed from the old value is answered for it. The packed image
// arrives inside the same *sdb.Table the bump publishes, so an image from
// generation G can never appear under generation G+1 (pinned by
// TestStorePublishRepackRace).
func (s *Store) Publish(t *sdb.Table) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.rebuildLocked(s.snap, t.Name)
	if err != nil {
		return 0, err
	}
	if err := next.Catalog.Attach(t); err != nil {
		return 0, err
	}
	s.nextGen++
	gen := s.nextGen
	next.gens[t.Name] = gen
	s.snap = next
	return gen, nil
}

// Drop removes a table, reporting whether it existed.
func (s *Store) Drop(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap
	if _, exists := old.gens[name]; !exists {
		return false, nil
	}
	next, err := s.rebuildLocked(old, name)
	if err != nil {
		return false, err
	}
	s.snap = next
	return true, nil
}

// rebuildLocked copies old into a fresh snapshot, omitting the named table.
// Tables are attached by pointer — they are immutable once built, so sharing
// them between snapshots is safe.
func (s *Store) rebuildLocked(old *Snapshot, omit string) (*Snapshot, error) {
	c, err := sdb.NewCatalogAtLevel(s.level)
	if err != nil {
		return nil, err
	}
	next := &Snapshot{Catalog: c, gens: make(map[string]uint64, len(old.gens)+1)}
	for _, name := range old.Catalog.Names() {
		if name == omit {
			continue
		}
		t, err := old.Catalog.Table(name)
		if err != nil {
			return nil, err
		}
		if err := c.Attach(t); err != nil {
			return nil, err
		}
		next.gens[name] = old.gens[name]
	}
	return next, nil
}
