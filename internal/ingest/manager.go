package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/resilience"
	"spatialsel/internal/sdb"
)

// Options configures a Manager.
type Options struct {
	// Level is the GH statistics level, matching the serving store's.
	Level int
	// Dir is the WAL directory; empty disables durability (mutations still
	// work, they just don't survive a restart).
	Dir string
	// Lookup fetches the current read-only table for lazy opening — typically
	// a closure over the store's snapshot.
	Lookup func(name string) (*sdb.Table, error)
	// Publish installs snapshots into the serving store.
	Publish PublishFunc
	// Repack holds the background re-pack policy; zero values take defaults.
	Repack RepackPolicy
	// FS is the filesystem WALs live on; nil means the real disk. Tests
	// inject a faultfs.Injector here.
	FS faultfs.FS
	// Retry bounds WAL write/fsync retries; zero values take defaults.
	Retry resilience.RetryPolicy
	// Breaker paces degraded-mode write probes; zero values take defaults.
	Breaker resilience.BreakerPolicy
}

// tableOptions assembles per-table durability options from the manager's.
func (o *Options) tableOptions(walPath string) TableOptions {
	return TableOptions{
		WALPath: walPath,
		FS:      o.FS,
		Retry:   o.Retry,
		Breaker: o.Breaker,
	}
}

// Manager owns the mutation fronts of all live tables. Tables are opened
// lazily on their first mutation (building the write tree and statistics
// builder from the registered read-only table) and recovered eagerly from
// their WALs at startup.
type Manager struct {
	opts Options

	mu     sync.Mutex
	tables map[string]*Table
	// opening latches in-flight lazy opens so the heavy open work (and the
	// caller-provided Lookup callback) runs outside mu while still being paid
	// once per table.
	opening map[string]*tableOpen
}

// tableOpen is one in-flight lazy open; waiters block on done, then read t
// and err (written before done closes).
type tableOpen struct {
	done chan struct{}
	t    *Table
	err  error
}

// NewManager returns a manager with no open tables.
func NewManager(opts Options) *Manager {
	opts.Repack = opts.Repack.withDefaults()
	return &Manager{
		opts:    opts,
		tables:  make(map[string]*Table),
		opening: make(map[string]*tableOpen),
	}
}

// Table returns the mutation front for name, opening it on first use. The
// open cost (clone index, seed histogram builder, write the WAL checkpoint)
// is paid once per table per process: concurrent first callers rendezvous on
// an in-flight latch, and the open itself — including the caller-provided
// Lookup callback — runs outside m.mu so unknown code never executes inside
// the manager's critical section. A failed open is not cached; the next
// caller retries.
func (m *Manager) Table(name string) (*Table, error) {
	m.mu.Lock()
	if t, ok := m.tables[name]; ok {
		m.mu.Unlock()
		return t, nil
	}
	if fl, ok := m.opening[name]; ok {
		m.mu.Unlock()
		<-fl.done
		return fl.t, fl.err
	}
	fl := &tableOpen{done: make(chan struct{})}
	m.opening[name] = fl
	m.mu.Unlock()

	fl.t, fl.err = m.openTable(name)

	m.mu.Lock()
	delete(m.opening, name)
	if fl.err == nil {
		m.tables[name] = fl.t
	}
	m.mu.Unlock()
	close(fl.done)
	return fl.t, fl.err
}

// openTable performs the heavy part of a lazy open. It must be called
// without m.mu held: Lookup is arbitrary caller code and OpenTableOpts
// writes a WAL checkpoint.
func (m *Manager) openTable(name string) (*Table, error) {
	walPath, err := m.walPath(name)
	if err != nil {
		return nil, err
	}
	tbl, err := m.opts.Lookup(name)
	if err != nil {
		return nil, err
	}
	return OpenTableOpts(tbl, m.opts.Level, m.opts.tableOptions(walPath), m.opts.Publish)
}

// DegradedTables lists open tables currently refusing mutations (sorted) —
// the read-only degraded set the server exports as a gauge.
func (m *Manager) DegradedTables() []string {
	m.mu.Lock()
	tables := make([]*Table, 0, len(m.tables))
	for _, t := range m.tables {
		tables = append(tables, t)
	}
	m.mu.Unlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name() < tables[j].Name() })
	// Degraded acquires each table's own lock, so it runs outside m.mu.
	var names []string
	for _, t := range tables {
		if down, _ := t.Degraded(); down {
			names = append(names, t.Name())
		}
	}
	return names
}

// Forget closes a table's mutation front and deletes its WAL — the
// drop-table path. Missing state is not an error: most tables are never
// mutated and have nothing to forget.
func (m *Manager) Forget(name string) error {
	m.mu.Lock()
	t := m.tables[name]
	delete(m.tables, name)
	m.mu.Unlock()
	var err error
	if t != nil {
		err = t.Close()
		if t.WALPath() != "" {
			if rmErr := os.Remove(t.WALPath()); rmErr != nil && err == nil {
				err = rmErr
			}
		}
		return err
	}
	if p, pathErr := m.walPath(name); pathErr == nil && p != "" {
		if rmErr := os.Remove(p); rmErr != nil && !os.IsNotExist(rmErr) {
			err = rmErr
		}
	}
	return err
}

// Recover scans the WAL directory, rebuilds every logged table, publishes
// their snapshots, and returns the recovered names (sorted). Called once at
// startup, before serving traffic.
func (m *Manager) Recover() ([]string, error) {
	if m.opts.Dir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(m.opts.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".wal"))
	}
	sort.Strings(names)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range names {
		opts := m.opts.tableOptions(filepath.Join(m.opts.Dir, name+".wal"))
		t, err := RecoverTableOpts(name, m.opts.Level, opts, m.opts.Publish)
		if err != nil {
			return nil, err
		}
		if _, err := t.Snapshot(); err != nil {
			t.Close()
			return nil, fmt.Errorf("ingest: recover %s: publish: %w", name, err)
		}
		m.tables[name] = t
	}
	return names, nil
}

// Names lists the open tables in sorted order.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tables))
	for n := range m.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close closes every open table's WAL.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, t := range m.tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.tables = make(map[string]*Table)
	return first
}

// walPath derives the table's WAL file path, or "" when durability is off.
// Names become file names, so anything that could escape the WAL directory
// is rejected before it reaches the filesystem.
func (m *Manager) walPath(name string) (string, error) {
	if m.opts.Dir == "" {
		return "", nil
	}
	if name == "" || !safeName(name) {
		return "", fmt.Errorf("ingest: table name %q not usable as a WAL file name (use letters, digits, '_', '-')", name)
	}
	if err := os.MkdirAll(m.opts.Dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(m.opts.Dir, name+".wal"), nil
}

// safeName reports whether name is a plain identifier-like file name.
func safeName(name string) bool {
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
