package ingest

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/resilience"
	"spatialsel/internal/sdb"
)

// faultTable opens a mutation front over an injected filesystem with fast
// retry/breaker policies suited to tests.
func faultTable(t *testing.T) (*Table, *faultfs.Injector, *fakeStore, string) {
	t.Helper()
	base := buildTable(t, "ft", 300, 6, 11)
	store := &fakeStore{}
	inj := faultfs.NewInjector(faultfs.Disk(), 17)
	walPath := filepath.Join(t.TempDir(), "ft.wal")
	tbl, err := OpenTableOpts(base, 6, TableOptions{
		WALPath: walPath,
		FS:      inj,
		Retry:   resilience.RetryPolicy{Max: 1, Base: time.Microsecond, Cap: 10 * time.Microsecond},
		Breaker: resilience.BreakerPolicy{Failures: 1, Cooldown: time.Millisecond, MaxCooldown: 4 * time.Millisecond},
		Seed:    5,
	}, store.publish)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return tbl, inj, store, walPath
}

func oneInsert() Mutation {
	return Mutation{Inserts: []geom.Rect{geom.NewRect(1, 20, 3, 22)}}
}

func TestDegradedModeEntryServesReadsAndRecovers(t *testing.T) {
	tbl, inj, store, walPath := faultTable(t)
	defer tbl.Close()

	// Healthy commit first.
	res, err := tbl.Apply(oneInsert())
	if err != nil {
		t.Fatalf("healthy apply: %v", err)
	}
	preGen := res.Gen
	preLen := store.snapshot().Index.Len()

	// Persistent fsync failure: the commit exhausts retries and the table
	// flips to read-only degraded mode with a typed 503-class error.
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	var derr *DegradedError
	if _, err := tbl.Apply(oneInsert()); !errors.As(err, &derr) {
		t.Fatalf("apply under fault = %v, want DegradedError", err)
	}
	if derr.Table != "ft" || derr.RetryAfter <= 0 {
		t.Fatalf("DegradedError = %+v, want table and positive RetryAfter", derr)
	}
	if down, cause := tbl.Degraded(); !down || cause == nil {
		t.Fatalf("Degraded() = %v, %v; want true with cause", down, cause)
	}

	// Reads keep serving the last published snapshot: nothing unacknowledged
	// leaked into the store.
	snap := store.snapshot()
	if snap.Index.Len() != preLen || snap.Stats.ItemCount() != preLen {
		t.Fatalf("published snapshot changed under failed commit: index %d, stats %d, want %d",
			snap.Index.Len(), snap.Stats.ItemCount(), preLen)
	}

	// While the breaker holds, further mutations fail fast (probes that run
	// before the fault clears re-trip it; either way a DegradedError).
	if _, err := tbl.Apply(oneInsert()); !errors.As(err, &derr) {
		t.Fatalf("second apply = %v, want DegradedError", err)
	}

	// Fault clears; after the cooldown a probe commits end to end and
	// re-arms the table.
	inj.Clear()
	deadline := time.Now().Add(2 * time.Second)
	var got ApplyResult
	for {
		got, err = tbl.Apply(oneInsert())
		if err == nil {
			break
		}
		if !errors.As(err, &derr) {
			t.Fatalf("recovery apply = %v, want DegradedError until probe lands", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("table never recovered after fault cleared: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if down, _ := tbl.Degraded(); down {
		t.Fatal("table still degraded after successful probe commit")
	}
	if got.Gen <= preGen {
		t.Fatalf("recovered publish gen %d not after %d", got.Gen, preGen)
	}
	// The failed batch was never acknowledged and must not be in the state:
	// live = 300 base + healthy insert + probe insert.
	if snap := store.snapshot(); snap.Index.Len() != 302 {
		t.Fatalf("recovered snapshot has %d items, want 302", snap.Index.Len())
	}

	// Durable state agrees after a clean restart-style recovery.
	tbl.Close()
	rec, err := RecoverTable("ft", 6, walPath, store.publish)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if rec.Live() != 302 || rec.Seq() != got.Seq {
		t.Fatalf("recovered live=%d seq=%d, want 302/%d", rec.Live(), rec.Seq(), got.Seq)
	}
}

func TestDegradedModeProbeRespectsBreakerCooldown(t *testing.T) {
	tbl, inj, _, _ := faultTable(t)
	defer tbl.Close()
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	if _, err := tbl.Apply(oneInsert()); err == nil {
		t.Fatal("apply under fault should fail")
	}
	// Immediately after tripping, the breaker is open: no probe, so no new
	// sync attempts reach the injector.
	before := inj.Injected(faultfs.OpSync)
	if _, err := tbl.Apply(oneInsert()); err == nil {
		t.Fatal("apply while breaker open should fail")
	}
	if after := inj.Injected(faultfs.OpSync); after != before {
		t.Fatalf("breaker open but %d new sync attempts hit the disk", after-before)
	}
}

func TestDegradedTableSkipsRepack(t *testing.T) {
	tbl, inj, _, _ := faultTable(t)
	defer tbl.Close()
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	if _, err := tbl.Apply(oneInsert()); err == nil {
		t.Fatal("apply under fault should fail")
	}
	ran, err := tbl.Repack()
	if ran || err != nil {
		t.Fatalf("Repack on degraded table = (%v, %v), want (false, nil)", ran, err)
	}
}

func TestManagerDegradedTables(t *testing.T) {
	base := buildTable(t, "dt", 200, 6, 3)
	store := &fakeStore{}
	inj := faultfs.NewInjector(faultfs.Disk(), 9)
	m := NewManager(Options{
		Level:   6,
		Dir:     t.TempDir(),
		Lookup:  func(string) (*sdb.Table, error) { return base, nil },
		Publish: store.publish,
		FS:      inj,
		Retry:   resilience.RetryPolicy{Max: -1},
		Breaker: resilience.BreakerPolicy{Failures: 1, Cooldown: time.Hour},
	})
	defer m.Close()
	tbl, err := m.Table("dt")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.DegradedTables(); len(got) != 0 {
		t.Fatalf("healthy manager reports degraded tables %v", got)
	}
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	if _, err := tbl.Apply(oneInsert()); err == nil {
		t.Fatal("apply under fault should fail")
	}
	got := m.DegradedTables()
	if len(got) != 1 || got[0] != "dt" {
		t.Fatalf("DegradedTables = %v, want [dt]", got)
	}
}
