package ingest

import (
	"fmt"
	"sync"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/resilience"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sdb"
)

// PublishFunc installs a table snapshot into the serving store and returns
// the new generation. The ingest layer depends on this closure rather than on
// the server package, which keeps the dependency arrow pointing one way.
type PublishFunc func(*sdb.Table) (uint64, error)

// Mutation is one client batch: rectangles to insert (in the table's original
// coordinate space) and item IDs to delete. The batch commits atomically —
// either every operation is applied, logged, and published, or none is.
type Mutation struct {
	Inserts []geom.Rect
	Deletes []int
}

// Records returns the number of operations the mutation carries.
func (m *Mutation) Records() int { return len(m.Inserts) + len(m.Deletes) }

// ApplyResult reports a committed batch: the IDs assigned to the inserts (in
// input order), the table's WAL sequence, and the store generation whose
// snapshot contains the batch. When a later batch's snapshot was published
// first (group publication), Gen is that later generation — the batch is
// visible in it all the same.
type ApplyResult struct {
	IDs []int
	Seq uint64
	Gen uint64
}

// Degradation is the re-pack trigger signal: how much the write tree's node
// overlap has drifted from bulk-loaded quality, and how much churn the table
// has absorbed since it was last packed.
type Degradation struct {
	Overlap    float64 // rtree.OverlapFactor of the write tree
	Churn      int     // mutations applied since the last pack
	ChurnRatio float64 // Churn / max(1, Live)
	Live       int     // live (non-tombstoned) items
	Deadwood   int     // tombstoned ID slots
}

// deltaOp records one mutation applied while a re-pack is in flight, so the
// freshly packed tree can be caught up before it is swapped in.
type deltaOp struct {
	insert bool
	id     int
	rect   geom.Rect
}

// Table is the mutation front for one spatial table. It owns the write-side
// state — a Guttman R-tree that absorbs inserts and deletes, an incrementally
// maintained GH statistics builder, and the append-only item log that assigns
// IDs — and publishes an immutable snapshot (shared items view, cloned index,
// statistics summary) through its PublishFunc after every committed batch.
//
// Item IDs are indices into the append-only items slice and are never reused
// or renumbered: deletes tombstone their slot, and both re-pack and restart
// preserve the numbering, so an ID handed to a client stays valid for the
// table's lifetime.
type Table struct {
	name    string
	level   int
	wal     *WAL // nil when durability is disabled (no WAL directory)
	publish PublishFunc

	// Resilience wiring (set at construction, immutable after).
	walPath string
	fs      faultfs.FS
	retryer *resilience.Retryer
	breaker *resilience.Breaker
	fsyncFn func(time.Duration)

	mu        sync.Mutex // the apply critical section
	cond      *sync.Cond // signaled when inflight drains or a re-pack ends
	rawExtent geom.Rect
	items     []geom.Rect // by ID; append-only
	deleted   []bool      // tombstones, parallel to items
	nLive     int
	tree      *rtree.Tree
	builder   *histogram.GHBuilder
	seq       uint64
	churn     int  // mutations since last pack
	repacking bool // a re-pack is between its two critical sections
	inflight  int  // committers between apply and acknowledgment
	delta     []deltaOp

	degraded      bool  // read-only mode: WAL failed, breaker gating probes
	degradedCause error // what tripped it

	pubMu  sync.Mutex // serializes snapshot publication
	pubSeq uint64     // highest sequence published
	pubGen uint64     // generation of that publication
}

// TableOptions configures a table's durability and failure handling. The
// zero value means no WAL (in-memory only); zero policies take the
// resilience package defaults; a nil FS means the real disk.
type TableOptions struct {
	WALPath string                   // "" disables durability
	FS      faultfs.FS               // nil → faultfs.Disk()
	Retry   resilience.RetryPolicy   // WAL write/fsync retry bounds
	Breaker resilience.BreakerPolicy // degraded-mode probe cadence
	Seed    int64                    // retry jitter seed (tests)
}

// arm attaches the resilience plumbing to a freshly built table; callers
// construct t before any concurrent use.
func (t *Table) arm(o TableOptions) {
	if o.FS == nil {
		o.FS = faultfs.Disk()
	}
	t.cond = sync.NewCond(&t.mu)
	t.walPath = o.WALPath
	t.fs = o.FS
	t.retryer = resilience.NewRetryer(o.Retry, o.Seed)
	t.breaker = resilience.NewBreaker(o.Breaker)
}

// OpenTable wraps an existing read-only table (as registered in the serving
// store) with a mutation front on the real disk with default policies. The
// write tree starts as a deep clone of the table's index, the GH builder is
// seeded from its data, and — when walPath is non-empty — a fresh WAL is
// created whose checkpoint captures the starting state, making the table
// durable from this moment on.
func OpenTable(tbl *sdb.Table, level int, walPath string, publish PublishFunc) (*Table, error) {
	return OpenTableOpts(tbl, level, TableOptions{WALPath: walPath}, publish)
}

// OpenTableOpts is OpenTable with explicit durability options.
func OpenTableOpts(tbl *sdb.Table, level int, opts TableOptions, publish PublishFunc) (*Table, error) {
	builder, err := histogram.GHBuilderFrom(tbl.Data, level)
	if err != nil {
		return nil, fmt.Errorf("ingest: open %s: %w", tbl.Name, err)
	}
	n := tbl.Data.Len()
	items := make([]geom.Rect, n)
	copy(items, tbl.Data.Items)
	t := &Table{
		name:      tbl.Name,
		level:     level,
		publish:   publish,
		rawExtent: tbl.RawExtent,
		items:     items,
		deleted:   make([]bool, n),
		nLive:     n,
		tree:      tbl.Index.Clone(),
		builder:   builder,
	}
	t.arm(opts)
	if opts.WALPath != "" {
		w, err := CreateWALFS(t.fs, t.retryer, opts.WALPath, t.checkpointLocked())
		if err != nil {
			return nil, fmt.Errorf("ingest: open %s: %w", tbl.Name, err)
		}
		t.wal = w
	}
	return t, nil
}

// RecoverTable rebuilds a table's write-side state from its WAL alone on
// the real disk with default policies: the checkpoint restores the item
// log, the live items are bulk-loaded into a fresh tree and histogram, and
// every intact batch record is replayed through the same code path that
// applied it originally. The caller publishes the returned table's first
// snapshot (Snapshot) to make it readable.
func RecoverTable(name string, level int, walPath string, publish PublishFunc) (*Table, error) {
	return RecoverTableOpts(name, level, TableOptions{WALPath: walPath}, publish)
}

// RecoverTableOpts is RecoverTable with explicit durability options.
func RecoverTableOpts(name string, level int, opts TableOptions, publish PublishFunc) (*Table, error) {
	fs := opts.FS
	if fs == nil {
		fs = faultfs.Disk()
	}
	retryer := resilience.NewRetryer(opts.Retry, opts.Seed)
	w, cp, batches, err := OpenWALFS(fs, retryer, opts.WALPath)
	if err != nil {
		return nil, err
	}
	t, err := rebuildState(name, level, cp, batches)
	if err != nil {
		w.Close()
		return nil, err
	}
	t.wal = w
	t.publish = publish
	t.arm(opts)
	t.retryer = retryer // keep the Retryer the WAL was built with
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Seq returns the table's current WAL sequence.
func (t *Table) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Live returns the number of live (non-tombstoned) items.
func (t *Table) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nLive
}

// WALPath returns the table's WAL file path, or "" when durability is off.
func (t *Table) WALPath() string {
	if t.wal == nil {
		return ""
	}
	return t.wal.Path()
}

// SetFsyncObserver forwards to the table's WAL (no-op without one). The
// callback survives degraded-mode recovery, which swaps the WAL handle.
func (t *Table) SetFsyncObserver(fn func(time.Duration)) {
	t.fsyncFn = fn
	if t.wal != nil {
		t.wal.SetFsyncObserver(fn)
	}
}

// Apply commits one mutation batch: validate, assign IDs, append to the WAL,
// apply to the write tree and the statistics builder inside one critical
// section, group-commit fsync, then publish the new snapshot. The store
// generation bump that publication performs is what invalidates the server's
// generation-keyed estimate cache.
//
// When the table is in degraded mode, Apply either fails fast with
// DegradedError (breaker closed to probes) or — when the breaker grants the
// half-open probe — repairs the write-side state from the WAL's durable
// prefix and carries this batch as the probe: only a full append+fsync
// re-arms the table.
func (t *Table) Apply(m Mutation) (ApplyResult, error) {
	if m.Records() == 0 {
		return ApplyResult{}, fmt.Errorf("ingest: %s: empty batch", t.name)
	}

	t.mu.Lock()
	probing := false
	if t.degraded {
		if !t.breaker.Allow() {
			err := t.degradedErrLocked()
			t.mu.Unlock()
			return ApplyResult{}, err
		}
		if err := t.recoverLocked(); err != nil {
			t.breaker.Failure()
			t.degradedCause = err
			derr := t.degradedErrLocked()
			t.mu.Unlock()
			return ApplyResult{}, derr
		}
		// State repaired; this batch is the probe. degraded stays set until
		// the commit lands so concurrent writers keep failing fast.
		probing = true
	}
	norm := make([]geom.Rect, len(m.Inserts))
	for i, r := range m.Inserts {
		nr, err := t.normalizeLocked(r)
		if err != nil {
			t.failProbeLocked(probing)
			t.mu.Unlock()
			return ApplyResult{}, err
		}
		norm[i] = nr
	}
	if err := t.validateDeletesLocked(m.Deletes); err != nil {
		t.failProbeLocked(probing)
		t.mu.Unlock()
		return ApplyResult{}, err
	}

	t.seq++
	batch := Batch{Seq: t.seq, Deletes: m.Deletes}
	ids := make([]int, len(norm))
	for i, r := range norm {
		ids[i] = len(t.items) + i
		batch.Inserts = append(batch.Inserts, Insert{ID: ids[i], Rect: r})
	}
	if t.wal != nil {
		if err := t.wal.Append(batch); err != nil {
			t.seq--
			t.failProbeLocked(probing)
			t.mu.Unlock()
			return ApplyResult{}, err
		}
	}
	if err := t.applyLocked(batch); err != nil {
		// Only reachable through a broken internal invariant (the validation
		// above vouches for every operation); surface it rather than mask it.
		t.mu.Unlock()
		return ApplyResult{}, fmt.Errorf("ingest: %s: %w", t.name, err)
	}
	t.churn += batch.Records()
	seq := t.seq
	snap := t.snapshotLocked()
	t.inflight++
	t.mu.Unlock()

	if t.wal != nil {
		if err := t.wal.Sync(seq); err != nil {
			t.commitDone()
			return ApplyResult{}, t.enterDegraded(err)
		}
	}
	if probing || t.wal != nil {
		t.commitLanded(probing)
	}
	gen, err := t.publishSnap(seq, snap)
	t.commitDone()
	if err != nil {
		return ApplyResult{}, err
	}
	recordBatch(len(m.Inserts), len(m.Deletes))
	return ApplyResult{IDs: ids, Seq: seq, Gen: gen}, nil
}

// failProbeLocked re-trips the breaker when a half-open probe dies on
// validation before reaching the WAL: the recovery itself worked, but the
// table must stay degraded because no commit proved the disk healthy.
// Callers hold t.mu.
func (t *Table) failProbeLocked(probing bool) {
	if probing {
		t.breaker.Failure()
	}
}

// commitLanded records a successful append+fsync: the breaker's failure
// streak resets, and a probe commit re-arms the table for writes.
func (t *Table) commitLanded(probing bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.breaker.Success()
	if probing && t.degraded {
		t.degraded = false
		t.degradedCause = nil
		mWALRecovered.Inc()
	}
}

// commitDone retires an in-flight committer and wakes anyone waiting for
// the commit pipeline to drain (degraded-mode recovery).
func (t *Table) commitDone() {
	t.mu.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// Snapshot builds and publishes the table's current snapshot, returning the
// store generation. Used after recovery to make the replayed state readable.
func (t *Table) Snapshot() (uint64, error) {
	t.mu.Lock()
	seq := t.seq
	snap := t.snapshotLocked()
	t.mu.Unlock()
	return t.publishSnap(seq, snap)
}

// Degradation samples the re-pack trigger signal. The overlap scan walks the
// whole write tree under the apply lock, so callers should poll at a
// maintenance cadence, not per request.
func (t *Table) Degradation() Degradation {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.nLive
	if live < 1 {
		live = 1
	}
	return Degradation{
		Overlap:    t.tree.OverlapFactor(),
		Churn:      t.churn,
		ChurnRatio: float64(t.churn) / float64(live),
		Live:       t.nLive,
		Deadwood:   len(t.items) - t.nLive,
	}
}

// Repack rebuilds the read tree with an STR bulk load off the hot path. The
// expensive pack runs outside the apply lock against a frozen view of the
// live items; mutations that land meanwhile are recorded as a delta and
// replayed into the packed tree before it is swapped in with a single
// generation bump. Queries never block (they read published snapshots);
// writers block only for the two short critical sections. With a WAL, the
// swap also rewrites the log to a single checkpoint record — the
// truncate-on-repack step. Returns false when a re-pack was already running.
func (t *Table) Repack() (bool, error) {
	t.mu.Lock()
	if t.repacking || t.degraded {
		// Degraded tables skip re-packs: the WAL checkpoint rewrite would
		// need the very disk that just failed, and the probe path owns
		// recovery.
		t.mu.Unlock()
		return false, nil
	}
	t.repacking = true
	t.delta = t.delta[:0]
	live := make([]rtree.Item, 0, t.nLive)
	for id, r := range t.items {
		if !t.deleted[id] {
			live = append(live, rtree.Item{Rect: r, ID: id})
		}
	}
	t.mu.Unlock()

	start := time.Now()
	packed, err := rtree.BulkLoadSTR(live)
	if err != nil {
		t.mu.Lock()
		t.repacking = false
		t.cond.Broadcast()
		t.mu.Unlock()
		return false, fmt.Errorf("ingest: repack %s: %w", t.name, err)
	}

	t.mu.Lock()
	for _, op := range t.delta {
		if op.insert {
			packed.Insert(op.rect, op.id)
		} else {
			packed.Delete(op.rect, op.id)
		}
	}
	t.delta = nil
	t.repacking = false
	t.cond.Broadcast()
	t.tree = packed
	t.churn = 0
	seq := t.seq
	var werr error
	if t.wal != nil {
		// A failed checkpoint rewrite is non-destructive: the old log (its
		// checkpoint plus the full batch history) still covers the packed
		// state, so the re-pack stands and the truncation is retried on the
		// next pass.
		werr = t.wal.Checkpoint(t.checkpointLocked())
	}
	snap := t.snapshotLocked()
	t.mu.Unlock()

	mRepacks.Inc()
	mRepackSeconds.Add(time.Since(start).Seconds())
	if werr != nil {
		return true, werr
	}
	if _, err := t.publishSnap(seq, snap); err != nil {
		return true, err
	}
	return true, nil
}

// Close releases the WAL handle. Unsynced batches were never acknowledged,
// so there is nothing to flush.
func (t *Table) Close() error {
	if t.wal == nil {
		return nil
	}
	return t.wal.Close()
}

// normalizeLocked maps a rectangle from the table's original coordinate
// space onto the unit square the index and statistics live in, rejecting
// rectangles outside the table's fixed extent.
func (t *Table) normalizeLocked(r geom.Rect) (geom.Rect, error) {
	if !r.Valid() {
		return geom.Rect{}, fmt.Errorf("ingest: %s: invalid rectangle %v", t.name, r)
	}
	e := t.rawExtent
	if e.Width() <= 0 || e.Height() <= 0 {
		// Pre-normalized table: items must already live in the unit square.
		if !geom.UnitSquare.Contains(r) {
			return geom.Rect{}, fmt.Errorf("ingest: %s: %v outside unit square (table has no raw extent)", t.name, r)
		}
		return r, nil
	}
	if !e.Contains(r) {
		return geom.Rect{}, fmt.Errorf("ingest: %s: %v outside table extent %v (the extent is fixed at creation)", t.name, r, e)
	}
	w, h := e.Width(), e.Height()
	return geom.Rect{
		MinX: (r.MinX - e.MinX) / w,
		MinY: (r.MinY - e.MinY) / h,
		MaxX: (r.MaxX - e.MinX) / w,
		MaxY: (r.MaxY - e.MinY) / h,
	}, nil
}

// validateDeletesLocked checks every delete targets a live, distinct ID.
func (t *Table) validateDeletesLocked(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(t.items) {
			return fmt.Errorf("ingest: %s: unknown item id %d", t.name, id)
		}
		if t.deleted[id] {
			return fmt.Errorf("ingest: %s: item %d already deleted", t.name, id)
		}
		if seen[id] {
			return fmt.Errorf("ingest: %s: item %d deleted twice in one batch", t.name, id)
		}
		seen[id] = true
	}
	return nil
}

// applyLocked folds one batch into the write-side state. It is shared by the
// live apply path and WAL replay, so both produce identical state. An error
// means an internal invariant broke (or a corrupt-but-CRC-valid log on
// replay); the live path treats it as fatal for the batch.
func (t *Table) applyLocked(b Batch) error {
	for _, in := range b.Inserts {
		if in.ID != len(t.items) {
			return fmt.Errorf("insert id %d does not extend item log (len %d)", in.ID, len(t.items))
		}
		if err := t.builder.Add(in.Rect); err != nil {
			return err
		}
		t.items = append(t.items, in.Rect)
		t.deleted = append(t.deleted, false)
		t.tree.Insert(in.Rect, in.ID)
		t.nLive++
		if t.repacking {
			t.delta = append(t.delta, deltaOp{insert: true, id: in.ID, rect: in.Rect})
		}
	}
	for _, id := range b.Deletes {
		if id < 0 || id >= len(t.items) || t.deleted[id] {
			return fmt.Errorf("delete of unknown or dead item %d", id)
		}
		r := t.items[id]
		if err := t.builder.Remove(r); err != nil {
			return err
		}
		if !t.tree.Delete(r, id) {
			return fmt.Errorf("index lost item %d", id)
		}
		t.deleted[id] = true
		t.nLive--
		if t.repacking {
			t.delta = append(t.delta, deltaOp{id: id, rect: r})
		}
	}
	return nil
}

// snapshotLocked assembles the immutable table snapshot readers will serve
// from: a length-capped view of the append-only items slice (the writer only
// ever appends past this length, never mutates below it, so sharing the
// backing array is safe), a deep clone of the write tree, and a copied
// statistics summary. Tombstoned slots stay in the items view — the executor
// only reads Items[id] for IDs the index returns, and the index holds live
// IDs only.
func (t *Table) snapshotLocked() *sdb.Table {
	n := len(t.items)
	view := t.items[:n:n]
	return &sdb.Table{
		Name:      t.name,
		Data:      dataset.New(t.name, geom.UnitSquare, view),
		Index:     t.tree.Clone(),
		Stats:     t.builder.Summary(),
		RawExtent: t.rawExtent,
	}
}

// checkpointLocked captures the full table state for a WAL checkpoint.
func (t *Table) checkpointLocked() Checkpoint {
	items := make([]geom.Rect, len(t.items))
	copy(items, t.items)
	var del []int
	for id, dead := range t.deleted {
		if dead {
			del = append(del, id)
		}
	}
	return Checkpoint{Seq: t.seq, RawExtent: t.rawExtent, Items: items, Deleted: del}
}

// publishSnap installs a snapshot unless a later one is already live. Two
// committers can finish out of order; whichever published last carries the
// earlier batch's changes too (snapshots are built inside the apply critical
// section, so snapshot content order matches sequence order), so the stale
// publisher just reports the newer generation.
func (t *Table) publishSnap(seq uint64, tbl *sdb.Table) (uint64, error) {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	if seq <= t.pubSeq && t.pubSeq > 0 {
		return t.pubGen, nil
	}
	//lint:ignore lockorder pubMu exists to order publish handoffs by WAL seq; the callee is the store's snapshot installer, which takes only Store.mu and never re-enters the ingest layer
	gen, err := t.publish(tbl)
	if err != nil {
		return 0, err
	}
	t.pubSeq = seq
	t.pubGen = gen
	return gen, nil
}
