package ingest

import (
	"fmt"
	"sync"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/obs"
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

// Degradation is the fold trigger signal: how far the table has moved from
// its packed base. Churn counts every mutation since the last fold, so it
// bounds the overlay readers traverse beside the base (DeltaItems + Tombstones
// ≤ Churn, equal unless an item was inserted and deleted between two folds)
// and is also the number of records a restart replays from the WAL.
type Degradation struct {
	Churn      int     // mutations applied since the last fold
	ChurnRatio float64 // Churn / max(1, base slots)
	DeltaItems int     // items in the overlay's delta
	Tombstones int     // base slots the overlay marks deleted
	Live       int     // live (non-tombstoned) items
	Deadwood   int     // tombstoned ID slots
}

// catchUpOp records one mutation applied while a fold is in flight, so the
// freshly packed base can be caught up before it is swapped in.
type catchUpOp struct {
	insert bool
	id     int
	rect   geom.Rect
}

// Table is the mutation front for one spatial table. It owns the write-side
// state — the overlay on the packed base readers join against, a Guttman
// R-tree that absorbs the same inserts and deletes, an incrementally
// maintained GH statistics builder, and the append-only item log that assigns
// IDs — and publishes an immutable snapshot (shared items view, base planes
// under the current overlay, cloned index, statistics summary) through its
// PublishFunc after every committed batch.
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

	gDeltaItems, gTombstones *obs.Gauge // the published overlay's size

	mu   sync.Mutex // the apply critical section
	cond *sync.Cond // signaled when inflight drains or a fold ends
	state
	repacking bool // a fold is between its two critical sections
	inflight  int  // committers between apply and acknowledgment
	catchUp   []catchUpOp

	degraded      bool  // read-only mode: WAL failed, breaker gating probes
	degradedCause error // what tripped it

	pubMu  sync.Mutex // serializes snapshot publication
	pubSeq uint64     // highest sequence published
	pubGen uint64     // generation of that publication
}

// state is what a table's WAL determines: the item log, the statistics, and
// the two indexes over the live items. Recovery rebuilds it whole.
type state struct {
	rawExtent geom.Rect
	items     []geom.Rect // by ID; append-only
	deleted   []bool      // tombstones, parallel to items
	nLive     int
	builder   *histogram.GHBuilder
	seq       uint64
	churn     int // mutations since the last fold
	ov        *overlay
	// checkpointOwed: the state was folded but the WAL still holds the batches
	// that led to it — a fold whose checkpoint rewrite failed, or a recovery
	// that replayed them. The next RepackPass retries the rewrite alone.
	checkpointOwed bool
	// tree holds the live items a second time, and every publish deep-clones
	// it into sdb.Table.Index, because bench/ still reads Index on published
	// live tables. ROADMAP item 1 (the [benchmark] PR) removes the field, this
	// tree and the clone; until then nothing on the read path touches them.
	tree *rtree.Tree
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
	t.gDeltaItems = obs.Default.Gauge("sdbd_ingest_delta_items",
		"Items in the table's published delta image: inserts since the last fold.", obs.L("table", t.name))
	t.gTombstones = obs.Default.Gauge("sdbd_ingest_tombstones",
		"Base slots the table's published image marks deleted since the last fold.", obs.L("table", t.name))
	t.walPath = o.WALPath
	t.fs = o.FS
	t.retryer = resilience.NewRetryer(o.Retry, o.Seed)
	t.breaker = resilience.NewBreaker(o.Breaker)
}

// OpenTable wraps an existing read-only table (as registered in the serving
// store) with a mutation front on the real disk with default policies. The
// table's packed image becomes the base (re-packed first if it already
// carries an overlay: a snapshot another front published), the write tree
// starts as a deep clone of its index, the GH builder is seeded from its data,
// and — when walPath is non-empty — a fresh WAL is created whose checkpoint
// captures the starting state, making the table durable from this moment on.
func OpenTable(tbl *sdb.Table, level int, walPath string, publish PublishFunc) (*Table, error) {
	return OpenTableOpts(tbl, level, TableOptions{WALPath: walPath}, publish)
}

// OpenTableOpts is OpenTable with explicit durability options.
func OpenTableOpts(tbl *sdb.Table, level int, opts TableOptions, publish PublishFunc) (*Table, error) {
	n := tbl.Data.Len()
	items := make([]geom.Rect, n)
	copy(items, tbl.Data.Items)
	// The image says which slots of the item log are live: all of them in a
	// registered table, not in a snapshot an ingest front published.
	deleted := make([]bool, n)
	for id := range deleted {
		deleted[id] = true
	}
	stray := -1
	tbl.Packed.VisitItems(func(id int, _ geom.Rect) {
		if id < 0 || id >= n {
			stray = id
			return
		}
		deleted[id] = false
	})
	if stray != -1 {
		return nil, fmt.Errorf("ingest: open %s: index holds item %d, the data %d items", tbl.Name, stray, n)
	}
	tree, base := tbl.Index.Clone(), tbl.Packed
	if d, ts := base.Overlay(); d+ts > 0 {
		base = rtree.Pack(tree)
	}
	t := &Table{
		name:    tbl.Name,
		level:   level,
		publish: publish,
		state: state{
			rawExtent: tbl.RawExtent,
			items:     items,
			deleted:   deleted,
			ov:        newOverlay(base, n),
			tree:      tree,
		},
	}
	if err := t.seedStats(tbl.Name, level); err != nil {
		return nil, fmt.Errorf("ingest: open %s: %w", tbl.Name, err)
	}
	t.arm(opts)
	if opts.WALPath != "" {
		w, err := CreateWALFS(t.fs, t.retryer, opts.WALPath, t.checkpointRecordLocked())
		if err != nil {
			return nil, fmt.Errorf("ingest: open %s: %w", tbl.Name, err)
		}
		t.wal = w
	}
	return t, nil
}

// RecoverTable rebuilds a table's write-side state from its WAL alone on
// the real disk with default policies: the checkpoint restores the item
// log, every intact batch record is replayed into it and the histogram, and
// the live items that remain are bulk-loaded and packed into a fresh base
// with an empty overlay. The caller publishes the returned table's first
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
	st, err := rebuildState(name, level, cp, batches)
	if err != nil {
		w.Close()
		return nil, err
	}
	t := &Table{name: name, level: level, wal: w, publish: publish, state: *st}
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
	gen, err := t.publishSnap(seq, false, snap)
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
	return t.publishSnap(seq, false, snap)
}

// Degradation samples the fold trigger signal.
func (t *Table) Degradation() Degradation {
	t.mu.Lock()
	defer t.mu.Unlock()
	slots := t.ov.base.Len()
	if slots < 1 {
		slots = 1
	}
	return Degradation{
		Churn:      t.churn,
		ChurnRatio: float64(t.churn) / float64(slots),
		DeltaItems: t.ov.delta.Len(),
		Tombstones: t.ov.nDead,
		Live:       t.nLive,
		Deadwood:   len(t.items) - t.nLive,
	}
}

// Repack is the fold: it builds a new packed base from the live items off the
// hot path and starts a fresh overlay on it. The STR bulk load and the pack run
// outside the apply lock against a frozen view of the live items; mutations
// that land meanwhile go to the current overlay as usual and are also logged,
// and the log is replayed onto the new base — as its first tombstones and
// delta items — before the swap, which publishes with a single generation
// bump. Queries never block (they read published snapshots, whose planes a
// fold leaves alone); writers block only for the two short critical sections.
// With a WAL, the swap also rewrites the log to a single checkpoint record —
// the truncate-on-fold step. Returns false when a fold was already running.
func (t *Table) Repack() (bool, error) {
	t.mu.Lock()
	if t.repacking || t.degraded {
		// Degraded tables skip folds: the WAL checkpoint rewrite would need
		// the very disk that just failed, and the probe path owns recovery.
		t.mu.Unlock()
		return false, nil
	}
	t.repacking = true
	t.catchUp = t.catchUp[:0]
	nIDs := len(t.items)
	live := t.liveItemsLocked()
	t.mu.Unlock()

	start := time.Now()
	tree, err := rtree.BulkLoadSTR(live)
	if err != nil {
		t.mu.Lock()
		t.repacking = false
		t.cond.Broadcast()
		t.mu.Unlock()
		return false, fmt.Errorf("ingest: repack %s: %w", t.name, err)
	}
	ov := newOverlay(rtree.Pack(tree), nIDs)

	t.mu.Lock()
	for _, op := range t.catchUp {
		if op.insert {
			tree.Insert(op.rect, op.id)
			ov.insert(op.id, op.rect)
		} else {
			tree.Delete(op.rect, op.id)
			ov.remove(op.id, op.rect)
		}
	}
	t.churn = len(t.catchUp)
	t.catchUp = nil
	t.repacking = false
	t.cond.Broadcast()
	t.tree, t.ov = tree, ov
	seq := t.seq
	// A failed checkpoint rewrite is non-destructive: the old log (its
	// checkpoint plus the full batch history) still covers the folded state,
	// so the fold stands, its snapshot is published, and the truncation stays
	// owed until a later pass gets it through.
	werr := t.checkpointLocked()
	snap := t.snapshotLocked()
	t.mu.Unlock()

	mRepacks.Inc()
	mRepackSeconds.Add(time.Since(start).Seconds())
	if _, err := t.publishSnap(seq, true, snap); err != nil {
		return true, err
	}
	return true, werr
}

// retryCheckpoint rewrites the WAL to a checkpoint when an earlier fold could
// not; otherwise it does nothing.
func (t *Table) retryCheckpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.checkpointOwed || t.degraded {
		return nil
	}
	return t.checkpointLocked()
}

// checkpointLocked rewrites the WAL to one checkpoint record of the current
// state and records whether the rewrite is still owed.
func (t *Table) checkpointLocked() error {
	if t.wal == nil {
		return nil
	}
	err := t.wal.Checkpoint(t.checkpointRecordLocked())
	t.checkpointOwed = err != nil
	return err
}

// seedStats counts the live items of the log and builds the statistics over
// them, in id order.
func (s *state) seedStats(name string, level int) error {
	var err error
	if s.builder, err = histogram.NewGHBuilder(name, level); err != nil {
		return err
	}
	s.nLive = 0
	for id, r := range s.items {
		if s.deleted[id] {
			continue
		}
		s.nLive++
		if err := s.builder.Add(r); err != nil {
			return err
		}
	}
	return nil
}

// liveItemsLocked lists the live items by id.
func (s *state) liveItemsLocked() []rtree.Item {
	live := make([]rtree.Item, 0, s.nLive)
	for id, r := range s.items {
		if !s.deleted[id] {
			live = append(live, rtree.Item{Rect: r, ID: id})
		}
	}
	return live
}

// Close releases the WAL handle. Unsynced batches were never acknowledged,
// so there is nothing to flush. The overlay gauges go to zero with the front:
// a dropped table must not keep reporting a distance to its next fold.
func (t *Table) Close() error {
	t.gDeltaItems.Set(0)
	t.gTombstones.Set(0)
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

// logLocked folds one batch into the item log and the statistics — the part
// of the state a WAL replay needs batch by batch. An error means an internal
// invariant broke (or a corrupt-but-CRC-valid log on replay); the live path
// treats it as fatal for the batch.
func (s *state) logLocked(b Batch) error {
	for _, in := range b.Inserts {
		if in.ID != len(s.items) {
			return fmt.Errorf("insert id %d does not extend item log (len %d)", in.ID, len(s.items))
		}
		if err := s.builder.Add(in.Rect); err != nil {
			return err
		}
		s.items = append(s.items, in.Rect)
		s.deleted = append(s.deleted, false)
		s.nLive++
	}
	for _, id := range b.Deletes {
		if id < 0 || id >= len(s.items) || s.deleted[id] {
			return fmt.Errorf("delete of unknown or dead item %d", id)
		}
		if err := s.builder.Remove(s.items[id]); err != nil {
			return err
		}
		s.deleted[id] = true
		s.nLive--
	}
	return nil
}

// applyLocked folds one batch into the whole write-side state: the log and
// statistics, then the overlay and the write tree, and the catch-up log of a
// fold in flight.
func (t *Table) applyLocked(b Batch) error {
	if err := t.logLocked(b); err != nil {
		return err
	}
	for _, in := range b.Inserts {
		t.ov.insert(in.ID, in.Rect)
		t.tree.Insert(in.Rect, in.ID)
		if t.repacking {
			t.catchUp = append(t.catchUp, catchUpOp{insert: true, id: in.ID, rect: in.Rect})
		}
	}
	for _, id := range b.Deletes {
		r := t.items[id]
		if !t.ov.remove(id, r) || !t.tree.Delete(r, id) {
			return fmt.Errorf("index lost item %d", id)
		}
		if t.repacking {
			t.catchUp = append(t.catchUp, catchUpOp{id: id, rect: r})
		}
	}
	return nil
}

// snapshotLocked assembles the immutable table snapshot readers will serve
// from: a length-capped view of the append-only items slice (the writer only
// ever appends past this length, never mutates below it, so sharing the
// backing array is safe), the base planes under the overlay's current image,
// a deep clone of the write tree, and a copied statistics summary. Tombstoned
// slots stay in the items view — the executor only reads Items[id] for IDs the
// index returns, and the index holds live IDs only; the table's cardinality
// and what estimators summarize come from the image (sdb.Table.Len, LiveData).
func (t *Table) snapshotLocked() *sdb.Table {
	n := len(t.items)
	view := t.items[:n:n]
	t.gDeltaItems.Set(int64(t.ov.delta.Len()))
	t.gTombstones.Set(int64(t.ov.nDead))
	return &sdb.Table{
		Name:      t.name,
		Data:      dataset.New(t.name, geom.UnitSquare, view),
		Index:     t.tree.Clone(),
		Packed:    t.ov.image(),
		Stats:     t.builder.Summary(),
		RawExtent: t.rawExtent,
	}
}

// checkpointRecordLocked captures the full table state for a WAL checkpoint.
func (t *Table) checkpointRecordLocked() Checkpoint {
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
// publisher just reports the newer generation. A fold's snapshot holds the
// same items as the batch snapshot of its sequence on a new base, and
// replaces it: readers stop paying for the overlay when the fold ends, not at
// the next write.
func (t *Table) publishSnap(seq uint64, folded bool, tbl *sdb.Table) (uint64, error) {
	t.pubMu.Lock()
	defer t.pubMu.Unlock()
	if t.pubSeq > 0 && (seq < t.pubSeq || seq == t.pubSeq && !folded) {
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
