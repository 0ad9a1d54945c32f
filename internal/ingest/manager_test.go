package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spatialsel/internal/geom"
	"spatialsel/internal/sdb"
)

// managerFixture wires a Manager to a fakeStore plus a lookup map.
type managerFixture struct {
	store  *fakeStore
	lookup map[string]*sdb.Table
	m      *Manager
}

func newManagerFixture(t *testing.T, dir string, level int, policy RepackPolicy) *managerFixture {
	t.Helper()
	fx := &managerFixture{store: &fakeStore{}, lookup: map[string]*sdb.Table{}}
	fx.m = NewManager(Options{
		Level: level,
		Dir:   dir,
		Lookup: func(name string) (*sdb.Table, error) {
			tbl, ok := fx.lookup[name]
			if !ok {
				return nil, fmt.Errorf("unknown table %q", name)
			}
			return tbl, nil
		},
		Publish: fx.store.publish,
		Repack:  policy,
	})
	return fx
}

// storeChanged is a Forget change that reports the store edit landed.
func storeChanged() bool { return true }

func TestManagerLazyOpenAndForget(t *testing.T) {
	const level = 4
	dir := t.TempDir()
	fx := newManagerFixture(t, dir, level, RepackPolicy{})
	fx.lookup["a"] = buildTable(t, "a", 50, level, 20)

	if _, err := fx.m.Table("missing"); err == nil {
		t.Fatal("unknown table opened")
	}
	ta, err := fx.m.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if tb, err := fx.m.Table("a"); err != nil || tb != ta {
		t.Fatal("second open did not reuse the mutation front")
	}
	walPath := filepath.Join(dir, "a.wal")
	if ta.WALPath() != walPath {
		t.Fatalf("WAL at %q", ta.WALPath())
	}
	if _, err := os.Stat(walPath); err != nil {
		t.Fatal(err)
	}
	if got := fx.m.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Names = %v", got)
	}

	if err := fx.m.Forget("a", storeChanged); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatal("Forget left the WAL behind")
	}
	if len(fx.m.Names()) != 0 {
		t.Fatal("Forget left the table open")
	}
	// Forgetting a never-opened table is a no-op.
	if err := fx.m.Forget("never", storeChanged); err != nil {
		t.Fatal(err)
	}
}

func TestManagerRejectsUnsafeNames(t *testing.T) {
	fx := newManagerFixture(t, t.TempDir(), 4, RepackPolicy{})
	fx.lookup["../evil"] = buildTable(t, "x", 10, 4, 21)
	if _, err := fx.m.Table("../evil"); err == nil {
		t.Fatal("path-traversal name accepted for a WAL file")
	}
	// Without a WAL dir any name is fine — nothing touches the filesystem.
	fx2 := newManagerFixture(t, "", 4, RepackPolicy{})
	fx2.lookup["../evil"] = buildTable(t, "x", 10, 4, 21)
	if _, err := fx2.m.Table("../evil"); err != nil {
		t.Fatal(err)
	}
}

func TestManagerRecover(t *testing.T) {
	const level = 4
	dir := t.TempDir()
	fx := newManagerFixture(t, dir, level, RepackPolicy{})
	fx.lookup["a"] = buildTable(t, "a", 60, level, 22)
	fx.lookup["b"] = buildTable(t, "b", 40, level, 23)

	rng := rand.New(rand.NewSource(24))
	for _, name := range []string{"a", "b"} {
		tab, err := fx.m.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	aLive := mustTable(t, fx.m, "a").Live()
	if err := fx.m.Close(); err != nil {
		t.Fatal(err)
	}

	// New process: a fresh manager over the same dir recovers both tables
	// and publishes their snapshots without consulting Lookup.
	fx2 := newManagerFixture(t, dir, level, RepackPolicy{})
	names, err := fx2.m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("recovered %v", names)
	}
	if got := mustTable(t, fx2.m, "a").Live(); got != aLive {
		t.Fatalf("recovered live %d, want %d", got, aLive)
	}
	if fx2.store.snapshot() == nil {
		t.Fatal("recovery published nothing")
	}
	if err := fx2.m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery over an empty or missing dir is a no-op.
	fx3 := newManagerFixture(t, filepath.Join(dir, "nope"), level, RepackPolicy{})
	if names, err := fx3.m.Recover(); err != nil || len(names) != 0 {
		t.Fatalf("recover on missing dir: %v %v", names, err)
	}
}

func mustTable(t *testing.T, m *Manager, name string) *Table {
	t.Helper()
	tab, err := m.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestManagerRunRepacks drives the background loop end to end: sustained
// churn pushes a table over the policy threshold and the loop re-packs it
// while readers keep querying published snapshots.
func TestManagerRunRepacks(t *testing.T) {
	const level = 4
	fx := newManagerFixture(t, "", level, RepackPolicy{
		Interval:      time.Millisecond,
		MinChurn:      32,
		MaxChurnRatio: 0.05,
	})
	fx.lookup["hot"] = buildTable(t, "hot", 200, level, 25)
	tab := mustTable(t, fx.m, "hot")

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fx.m.Run(ctx)
	}()

	repacksBefore := mRepacks.Value()
	rng := rand.New(rand.NewSource(26))
	deadline := time.Now().Add(5 * time.Second)
	for mRepacks.Value() == repacksBefore && time.Now().Before(deadline) {
		if _, err := tab.Apply(Mutation{Inserts: []geom.Rect{rawRect(rng)}}); err != nil {
			t.Fatal(err)
		}
		snap := fx.store.snapshot()
		if snap.Index.Len() != snap.Stats.ItemCount() {
			t.Fatalf("snapshot inconsistency: index %d, stats %d", snap.Index.Len(), snap.Stats.ItemCount())
		}
	}
	cancel()
	wg.Wait()
	if mRepacks.Value() == repacksBefore {
		t.Fatal("background loop never re-packed under churn")
	}
	if d := tab.Degradation(); d.Live != tab.Live() {
		t.Fatal("degradation sample inconsistent")
	}
}
