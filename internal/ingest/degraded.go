package ingest

import (
	"fmt"
	"time"

	"spatialsel/internal/rtree"
)

// DegradedError reports a mutation rejected because the table is in
// read-only degraded mode: its WAL failed persistently, the circuit breaker
// is holding writes off, and queries keep serving the last published
// snapshot. RetryAfter is the breaker's next-probe horizon, which the
// server forwards as a Retry-After header on the 503.
type DegradedError struct {
	Table      string
	RetryAfter time.Duration
	Err        error // root cause that tripped (or kept) the breaker
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("ingest: %s: read-only degraded mode (retry in %v): %v", e.Table, e.RetryAfter, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// Degraded reports whether the table is currently refusing mutations, and
// the root cause when it is.
func (t *Table) Degraded() (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degraded, t.degradedCause
}

// degradedErrLocked builds the 503 payload for a refused mutation; callers
// hold t.mu.
func (t *Table) degradedErrLocked() *DegradedError {
	return &DegradedError{Table: t.name, RetryAfter: t.breaker.RetryAfter(), Err: t.degradedCause}
}

// enterDegraded records a persistent WAL commit failure: it trips the
// circuit breaker and flips the table read-only, returning the DegradedError
// the failed committer answers with. Queries and estimates keep serving the
// last published snapshot (publication only ever happens after a successful
// fsync, so nothing half-applied is ever visible), while mutations fail fast
// until a half-open probe commits a batch end to end.
func (t *Table) enterDegraded(cause error) *DegradedError {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.breaker.Failure()
	t.degradedCause = cause
	if !t.degraded {
		t.degraded = true
		mWALDegraded.Inc()
	}
	return t.degradedErrLocked()
}

// recoverLocked is the half-open probe's repair step: it discards the
// write-side in-memory state (which may include batches that were applied
// but never acknowledged — exactly what a crash would lose) and rebuilds it
// from the WAL's durable prefix, the same path RecoverTable takes after a
// real restart. It waits for in-flight committers and any re-pack to drain
// first so no goroutine holds references into the state being replaced.
// Callers hold t.mu; the wait releases it.
func (t *Table) recoverLocked() error {
	for t.inflight > 0 || t.repacking {
		t.cond.Wait()
	}
	t.wal.Close()
	w, cp, batches, err := OpenWALFS(t.fs, t.retryer, t.walPath)
	if err != nil {
		// t.wal stays closed; the next probe retries the reopen.
		return fmt.Errorf("ingest: %s: degraded recovery: %w", t.name, err)
	}
	st, err := rebuildState(t.name, t.level, cp, batches)
	if err != nil {
		w.Close()
		return fmt.Errorf("ingest: %s: degraded recovery: %w", t.name, err)
	}
	w.SetFsyncObserver(t.fsyncFn)
	t.wal = w
	t.state = *st
	t.catchUp = nil
	return nil
}

// rebuildState reconstructs a table's write-side state from a checkpoint
// plus replayed batches — shared by restart recovery (RecoverTable) and
// degraded-mode recovery (recoverLocked). Replay touches only the item log
// and the statistics; the indexes are built once, from the items that
// survive it, so what comes back is a clean STR-packed base under an empty
// overlay — a fold — however long the log was.
func rebuildState(name string, level int, cp Checkpoint, batches []Batch) (*state, error) {
	s := &state{
		rawExtent:      cp.RawExtent,
		items:          cp.Items,
		deleted:        make([]bool, len(cp.Items)),
		seq:            cp.Seq,
		checkpointOwed: len(batches) > 0,
	}
	for _, id := range cp.Deleted {
		if id < 0 || id >= len(s.deleted) {
			return nil, fmt.Errorf("ingest: recover %s: tombstone %d out of range", name, id)
		}
		s.deleted[id] = true
	}
	if err := s.seedStats(name, level); err != nil {
		return nil, fmt.Errorf("ingest: recover %s: %w", name, err)
	}
	for _, b := range batches {
		if b.Seq != s.seq+1 {
			return nil, fmt.Errorf("ingest: recover %s: batch seq %d after %d (gap)", name, b.Seq, s.seq)
		}
		s.seq = b.Seq
		if err := s.logLocked(b); err != nil {
			return nil, fmt.Errorf("ingest: recover %s: replay seq %d: %w", name, b.Seq, err)
		}
	}
	var err error
	if s.tree, err = rtree.BulkLoadSTR(s.liveItemsLocked()); err != nil {
		return nil, fmt.Errorf("ingest: recover %s: %w", name, err)
	}
	s.ov = newOverlay(rtree.Pack(s.tree), len(s.items))
	return s, nil
}
