package ingest

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/resilience"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

// TestChaosMixedTrafficUnderFaults drives concurrent mutation and read
// traffic against one table while the filesystem injects a mix of fsync
// failures and torn writes, then asserts the resilience invariants:
//
//  1. No accepted batch is lost — every acknowledged insert is present in
//     the state recovered from the WAL after the storm.
//  2. No torn state is published — every snapshot readers observed is
//     internally consistent (index size == image size == statistics count),
//     i.e. estimates are never served from a half-applied generation — and
//     none is written to afterwards: a snapshot a reader holds across later
//     batches, folds and degraded-mode rebuilds keeps giving the join count
//     and search hits it gave when it was taken.
//  3. The table enters degraded read-only mode under persistent faults and
//     exits it once they clear, with reads served throughout.
//  4. Post-recovery state matches a fault-free reference run of the same
//     acknowledged history.
func TestChaosMixedTrafficUnderFaults(t *testing.T) {
	const (
		writers   = 4
		perWriter = 60
	)
	base := buildTable(t, "chaos", 400, 6, 21)
	store := &fakeStore{}
	inj := faultfs.NewInjector(faultfs.Disk(), 99)
	walPath := filepath.Join(t.TempDir(), "chaos.wal")
	tbl, err := OpenTableOpts(base, 6, TableOptions{
		WALPath: walPath,
		FS:      inj,
		Retry:   resilience.RetryPolicy{Max: 1, Base: time.Microsecond, Cap: 20 * time.Microsecond},
		Breaker: resilience.BreakerPolicy{Failures: 1, Cooldown: 500 * time.Microsecond, MaxCooldown: 2 * time.Millisecond},
		Seed:    13,
	}, store.publish)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if _, err := tbl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	partner := partnerImage(t, 300, 23)
	probe := geom.NewRect(0.05, 0.05, 0.7, 0.6)

	// The storm: every third fsync fails, and one write in ten is torn
	// short. Counts bound the storm so the run always drains.
	inj.Add(faultfs.Fault{Op: faultfs.OpSync, Rate: 0.35, Count: 50})
	inj.Add(faultfs.Fault{Op: faultfs.OpWrite, Rate: 0.1, Torn: 6, Count: 15})

	var (
		ackMu    sync.Mutex
		ackedIDs []int
		shed     atomic.Int64
		sawDown  atomic.Bool
		stop     atomic.Bool
		torn     atomic.Int64 // reader-observed inconsistent snapshots
		mutated  atomic.Int64 // held snapshots whose answers changed
		reasked  atomic.Int64 // held snapshots re-checked
	)

	var readers, writersWG sync.WaitGroup
	// Readers: hammer the published snapshot for internal consistency the
	// whole time, including while the table is degraded (they outlive the
	// writers and stop only after the healing commit).
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var held *sdb.Table
			var heldPubs, heldJoins int
			var heldHits []int
			recheck := func() {
				if rtree.PackedJoinCount(held.Packed, partner) != heldJoins || !sameIDs(held.Packed.Search(probe, nil), heldHits) {
					mutated.Add(1)
				}
				reasked.Add(1)
				held = nil
			}
			for !stop.Load() {
				snap, pubs := store.current()
				if snap.Index.Len() != snap.Stats.ItemCount() || snap.Packed.Len() != snap.Stats.ItemCount() {
					torn.Add(1)
					return
				}
				if down, _ := tbl.Degraded(); down {
					sawDown.Store(true)
				}
				switch {
				case held == nil:
					held, heldPubs = snap, pubs
					heldJoins, heldHits = rtree.PackedJoinCount(snap.Packed, partner), snap.Packed.Search(probe, nil)
				case pubs >= heldPubs+8:
					recheck()
				}
			}
			if held != nil {
				recheck()
			}
		}()
	}
	// A folder: new bases are swapped in throughout the storm (a fold whose
	// checkpoint rewrite hits a fault still stands; a degraded table skips).
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			_, _ = tbl.Repack()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Writers: single-insert batches; acknowledged IDs are the ground truth
	// the recovered state must contain.
	for wr := 0; wr < writers; wr++ {
		writersWG.Add(1)
		go func(wr int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				res, err := tbl.Apply(oneInsert())
				if err != nil {
					var derr *DegradedError
					if !errors.As(err, &derr) {
						t.Errorf("writer %d: non-degraded failure: %v", wr, err)
						return
					}
					shed.Add(1)
					time.Sleep(200 * time.Microsecond)
					continue
				}
				ackMu.Lock()
				ackedIDs = append(ackedIDs, res.IDs...)
				ackMu.Unlock()
			}
		}(wr)
	}
	writersWG.Wait()

	// Storm over (fault counts exhausted); drive probes until the table
	// heals and one more batch commits.
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	var final ApplyResult
	for {
		final, err = tbl.Apply(oneInsert())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("table never healed after faults cleared: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	readers.Wait()
	ackedIDs = append(ackedIDs, final.IDs...)

	if torn.Load() != 0 {
		t.Fatal("a reader observed an internally inconsistent published snapshot")
	}
	if mutated.Load() != 0 || reasked.Load() == 0 {
		t.Fatalf("%d of %d held snapshots changed their answers after publication", mutated.Load(), reasked.Load())
	}
	if shed.Load() == 0 || !sawDown.Load() {
		t.Fatalf("storm too gentle to exercise degraded mode: shed=%d sawDown=%v (tune fault rates)",
			shed.Load(), sawDown.Load())
	}
	if down, _ := tbl.Degraded(); down {
		t.Fatal("table still degraded after healing commit")
	}

	// Invariant 1 + 4: recover from the WAL as a restart would and check
	// every acknowledged insert survived, and that totals agree with a
	// fault-free application of the acknowledged history.
	tbl.Close()
	rec, err := RecoverTable("chaos", 6, walPath, store.publish)
	if err != nil {
		t.Fatalf("post-chaos recovery: %v", err)
	}
	defer rec.Close()
	rec.mu.Lock()
	for _, id := range ackedIDs {
		if id >= len(rec.items) {
			rec.mu.Unlock()
			t.Fatalf("acknowledged insert %d missing from recovered item log (len %d)", id, len(rec.items))
		}
		if rec.deleted[id] {
			rec.mu.Unlock()
			t.Fatalf("acknowledged insert %d tombstoned in recovered state", id)
		}
	}
	rec.mu.Unlock()
	// Fault-free reference: base items + exactly the acknowledged inserts.
	// (Recovered state may also hold unacknowledged batches that a later
	// group commit made durable — those are at-least-once ambiguity, but
	// never count *below* the acknowledged set.)
	if rec.Live() < 400+len(ackedIDs) {
		t.Fatalf("recovered live=%d < base 400 + %d acknowledged", rec.Live(), len(ackedIDs))
	}
	// The published snapshot the readers ended on is a prefix of (or equal
	// to) the recovered state, never ahead of it.
	if snap := store.snapshot(); snap.Index.Len() > rec.Live() {
		t.Fatalf("published snapshot (%d items) ahead of durable state (%d)", snap.Index.Len(), rec.Live())
	}
}
