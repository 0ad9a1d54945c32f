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
// lazily on their first mutation (building the overlay and statistics
// builder from the registered read-only table) and recovered eagerly from
// their WALs at startup.
type Manager struct {
	opts Options

	mu     sync.Mutex
	tables map[string]*Table
	// opening latches in-flight lazy opens so the heavy open work (and the
	// caller-provided Lookup callback) runs outside mu while still being paid
	// once per table. Forget claims the same latch while it retires a name.
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
	if opts.FS == nil {
		opts.FS = faultfs.Disk()
	}
	return &Manager{
		opts:    opts,
		tables:  make(map[string]*Table),
		opening: make(map[string]*tableOpen),
	}
}

// Table returns the mutation front for name, opening it on first use. The
// open cost (copy the item log, seed histogram builder, write the WAL checkpoint)
// is paid once per table per process: concurrent first callers rendezvous on
// an in-flight latch, and the open itself — including the caller-provided
// Lookup callback — runs outside m.mu so unknown code never executes inside
// the manager's critical section. A failed open is not cached; the next
// caller retries. A caller that waited on Forget's latch gets ErrClosed: the
// table it meant was dropped or replaced.
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

// Forget retires name's mutation front around change, the store edit that
// drops or replaces the table, so that nothing the old front does can bring
// back the table or its old data. It claims the name's opening latch — a
// mutation that asks for the front meanwhile waits, then gets ErrClosed —
// closes the front, runs change, and, when change reports that the store
// changed, deletes the WAL through the manager's filesystem (when it did
// not, the next mutation opens a fresh front on the table the store still
// holds, and that front's new WAL replaces the old one). Missing state is
// not an error: most tables are never mutated and have nothing to forget. A
// WAL that cannot be removed is: Recover would bring the table back at the
// next start.
func (m *Manager) Forget(name string, change func() bool) error {
	fl := &tableOpen{done: make(chan struct{}), err: fmt.Errorf("ingest: %s: %w", name, ErrClosed)}
	m.mu.Lock()
	for m.opening[name] != nil {
		open := m.opening[name]
		m.mu.Unlock()
		<-open.done
		m.mu.Lock()
	}
	m.opening[name] = fl
	t := m.tables[name]
	delete(m.tables, name)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.opening, name)
		m.mu.Unlock()
		close(fl.done)
	}()

	var err error
	walPath := ""
	if t != nil {
		err = t.Close()
		walPath = t.WALPath()
	} else if p, pathErr := m.walPath(name); pathErr == nil {
		walPath = p
	}
	if !change() || walPath == "" {
		return err
	}
	if rmErr := m.opts.FS.Remove(walPath); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
		err = rmErr
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
	if err := CheckTableName(name); err != nil {
		return "", fmt.Errorf("ingest: %w", err)
	}
	if err := os.MkdirAll(m.opts.Dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(m.opts.Dir, name+".wal"), nil
}

// CheckTableName reports an error unless name is a plain identifier-like
// file name: non-empty, ASCII letters, digits, '_' and '-' only. A table's
// WAL file is named after it, so the server refuses any other name when the
// table is created rather than when its first write needs the file.
func CheckTableName(name string) error {
	ok := name != ""
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("table name %q not usable as a WAL file name (use letters, digits, '_', '-')", name)
	}
	return nil
}
