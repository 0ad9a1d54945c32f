package ingest

import (
	"errors"
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

// ErrClosed is what a closed mutation front answers: its table was dropped
// or replaced, and nothing it does reaches the store any more.
var ErrClosed = errors.New("mutation front closed: the table was dropped or replaced")

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
// input order), the table's WAL sequence, and the store generation of the
// snapshot the batch published.
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
}

// Table is the mutation front for one spatial table. It owns the write-side
// state — the overlay on the packed base readers join against, an
// incrementally maintained GH statistics builder, and the append-only item
// log that assigns IDs — and publishes an immutable snapshot (shared items
// view, base planes under the current overlay, the pointer tree cut from that
// image, statistics summary) through its PublishFunc after every committed
// batch. Commits and folds (Repack) serialize on the apply lock, so a base is
// always packed from a state no writer is changing.
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
	fsyncFn func(time.Duration) // the exception: set by SetFsyncObserver, under mu

	gDeltaItems, gTombstones *obs.Gauge // the published overlay's size

	// mu is the apply lock: a commit — validation, WAL write and fsync,
	// apply, publication — is one critical section under it, as are a fold,
	// Snapshot and Close. Lock order: mu, then the store's lock (taken inside
	// publish).
	mu sync.Mutex
	state
	closed bool // Close ran: nothing commits or publishes any more

	degraded      bool  // read-only mode: WAL failed, breaker gating probes
	degradedCause error // what tripped it
}

// state is what a table's WAL determines: the item log, the statistics, and
// the overlay over the live items. Recovery rebuilds it whole.
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
// carries an overlay: a snapshot another front published), the GH builder is
// seeded from its data, and — when walPath is non-empty — a fresh WAL is
// created whose checkpoint captures the starting state, making the table
// durable from this moment on. The table's Index is not read: every snapshot
// the front publishes carries its own tree over its image.
func OpenTable(tbl *sdb.Table, level int, walPath string, publish PublishFunc) (*Table, error) {
	return OpenTableOpts(tbl, level, TableOptions{WALPath: walPath}, publish)
}

// OpenTableOpts is OpenTable with explicit durability options.
func OpenTableOpts(tbl *sdb.Table, level int, opts TableOptions, publish PublishFunc) (*Table, error) {
	n := tbl.Data.Len()
	// The item log only appends, and every snapshot holds an items[:n:n]
	// view, so the registered items start the log as they are: the first
	// insert copies them, as any growth past a published view does.
	items := tbl.Data.Items[:n:n]
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
	t := &Table{
		name:    tbl.Name,
		level:   level,
		publish: publish,
		state: state{
			rawExtent: tbl.RawExtent,
			items:     items,
			deleted:   deleted,
		},
	}
	if err := t.seedStats(tbl.Name, level); err != nil {
		return nil, fmt.Errorf("ingest: open %s: %w", tbl.Name, err)
	}
	if d, ts := tbl.Packed.Overlay(); d+ts > 0 {
		t.fold()
	} else {
		t.ov = newOverlay(tbl.Packed, n)
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

// RecoverTableOpts rebuilds a table's write-side state from its WAL alone:
// the checkpoint restores the item log, every intact batch record is
// replayed into it and the histogram, and the live items that remain are
// packed into a fresh base with an empty overlay. The caller publishes the
// returned table's first snapshot (Snapshot) to make it readable.
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
// The path is fixed at construction; the WAL handle behind it is not (a
// degraded-mode recovery reopens it).
func (t *Table) WALPath() string { return t.walPath }

// SetFsyncObserver forwards to the table's WAL (no-op without one). The
// callback survives degraded-mode recovery, which swaps the WAL handle.
func (t *Table) SetFsyncObserver(fn func(time.Duration)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fsyncFn = fn
	if t.wal != nil {
		t.wal.SetFsyncObserver(fn)
	}
}

// Apply commits one mutation batch in one critical section under the apply
// lock: validate, assign IDs, write and fsync the batch's WAL record, apply it
// to the overlay and the statistics builder, and publish the new snapshot. A
// commit that fails leaves the in-memory state untouched, so what is applied
// and published is always durable. The snapshot is a new table value with new
// statistics, so no estimate remembered against the old one
// (sdb.Table.Estimate) is answered for it.
//
// When the table is in degraded mode, Apply either fails fast with
// DegradedError (breaker closed to probes) or — when the breaker grants the
// half-open probe — repairs the write-side state from the WAL's durable
// prefix and carries this batch as the probe: only a full commit re-arms the
// table.
func (t *Table) Apply(m Mutation) (ApplyResult, error) {
	if m.Records() == 0 {
		return ApplyResult{}, fmt.Errorf("ingest: %s: empty batch", t.name)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ApplyResult{}, t.closedErr()
	}
	probing := false
	if t.degraded {
		if !t.breaker.Allow() {
			return ApplyResult{}, t.degradedErrLocked()
		}
		if err := t.recoverLocked(); err != nil {
			t.breaker.Failure()
			t.degradedCause = err
			return ApplyResult{}, t.degradedErrLocked()
		}
		// State repaired; this batch is the probe. degraded stays set until
		// the commit lands.
		probing = true
	}
	batch := Batch{Seq: t.seq + 1, Deletes: m.Deletes}
	ids := make([]int, len(m.Inserts))
	for i, r := range m.Inserts {
		nr, err := t.normalizeLocked(r)
		if err != nil {
			t.failProbeLocked(probing)
			return ApplyResult{}, err
		}
		ids[i] = len(t.items) + i
		batch.Inserts = append(batch.Inserts, Insert{ID: ids[i], Rect: nr})
	}
	if err := t.validateDeletesLocked(m.Deletes); err != nil {
		t.failProbeLocked(probing)
		return ApplyResult{}, err
	}

	if t.wal != nil {
		if err := t.wal.Commit(batch); err != nil {
			return ApplyResult{}, t.enterDegradedLocked(err)
		}
		t.breaker.Success()
		if probing {
			t.degraded = false
			t.degradedCause = nil
			mWALRecovered.Inc()
		}
	}
	t.seq = batch.Seq
	if err := t.applyLocked(batch); err != nil {
		// Only reachable through a broken internal invariant (the validation
		// above vouches for every operation); surface it rather than mask it.
		return ApplyResult{}, fmt.Errorf("ingest: %s: %w", t.name, err)
	}
	t.churn += batch.Records()
	gen, err := t.publishLocked()
	if err != nil {
		return ApplyResult{}, err
	}
	recordBatch(len(m.Inserts), len(m.Deletes))
	return ApplyResult{IDs: ids, Seq: batch.Seq, Gen: gen}, nil
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

// Snapshot builds and publishes the table's current snapshot, returning the
// store generation. Used after recovery to make the replayed state readable.
func (t *Table) Snapshot() (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, t.closedErr()
	}
	return t.publishLocked()
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
		DeltaItems: len(t.ov.delta),
		Tombstones: t.ov.nDead,
		Live:       t.nLive,
	}
}

// Repack is the fold: in one critical section under the apply lock it packs
// the live items into a new base, starts an empty overlay on it, rewrites the
// WAL to a single checkpoint record (the truncate-on-fold step) and publishes
// the folded snapshot with a single generation bump. Queries never block (they
// read published snapshots, whose planes a fold leaves alone); a write that
// arrives meanwhile waits the fold out, as does a concurrent Repack. Returns
// false when the table is degraded and nothing was folded, and ErrClosed after
// Close.
func (t *Table) Repack() (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false, t.closedErr()
	}
	if t.degraded {
		// Degraded tables skip folds: the WAL checkpoint rewrite would need
		// the very disk that just failed, and the probe path owns recovery.
		return false, nil
	}
	start := time.Now()
	t.fold()
	// A failed checkpoint rewrite is non-destructive: the old log (its
	// checkpoint plus the full batch history) still covers the folded state,
	// so the fold stands, its snapshot is published, and the truncation stays
	// owed until a later pass gets it through. The fold's snapshot holds the
	// same items as the last batch's on a new base, and replaces it: readers
	// stop paying for the overlay when the fold ends, not at the next write.
	werr := t.checkpointLocked()
	_, err := t.publishLocked()
	mRepacks.Inc()
	mRepackSeconds.Add(time.Since(start).Seconds())
	if err != nil {
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
// them the way a registration builds them (histogram.GHBuilderFrom runs
// GH.Build's accumulation), so they are bit-identical to it.
func (s *state) seedStats(name string, level int) error {
	live := make([]geom.Rect, 0, len(s.items))
	for id, r := range s.items {
		if !s.deleted[id] {
			live = append(live, r)
		}
	}
	var err error
	s.builder, err = histogram.GHBuilderFrom(dataset.New(name, geom.UnitSquare, live), level)
	s.nLive = len(live)
	return err
}

// fold packs the live items into a new base under an empty overlay and zeroes
// the churn. It is the only code that builds a base: Repack, recovery
// (rebuildState) and OpenTable of a snapshot that carries an overlay.
func (s *state) fold() {
	s.ov = newOverlay(rtree.PackItems(s.liveItemsLocked()), len(s.items))
	s.churn = 0
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

// Close retires the front: once it returns, nothing the front does reaches
// the store, so a dropped or replaced table stays gone. Every publisher —
// Apply, Repack, Snapshot — checks closed and publishes in one critical
// section under the apply lock, so a publication either finished before Close
// took the lock or is refused with ErrClosed. Then it releases the WAL
// handle: every committed batch is already durable, so there is nothing to
// flush. The overlay gauges go to zero with the front: a dropped table must
// not keep reporting a distance to its next fold.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.gDeltaItems.Set(0)
	t.gTombstones.Set(0)
	if t.wal == nil {
		return nil
	}
	return t.wal.Close()
}

// closedErr is the error a closed front answers with.
func (t *Table) closedErr() error {
	return fmt.Errorf("ingest: %s: %w", t.name, ErrClosed)
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
	return dataset.NormalizeRect(e, r), nil
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
// statistics, then the overlay. No fold runs beside it: both hold the apply
// lock.
func (t *Table) applyLocked(b Batch) error {
	if err := t.logLocked(b); err != nil {
		return err
	}
	for _, in := range b.Inserts {
		t.ov.insert(in.ID, in.Rect)
	}
	for _, id := range b.Deletes {
		if !t.ov.remove(id) {
			return fmt.Errorf("index lost item %d", id)
		}
	}
	return nil
}

// publishLocked assembles the immutable table snapshot readers will serve
// from and installs it through the PublishFunc, returning its generation: a
// length-capped view of the append-only items slice (the writer only
// ever appends past this length, never mutates below it, so sharing the
// backing array is safe), the base planes under the overlay's current image,
// the pointer tree over that image (rtree.TreeOf: sdb.Table.Index, which only
// the benchmark reads, so its nodes are cut only when that reads them, never
// here), and a copied statistics summary. Tombstoned slots
// stay in the items view — the executor only reads Items[id] for IDs the
// index returns, and the index holds live IDs only; the table's cardinality
// and what estimators summarize come from the image (sdb.Table.Len, LiveData).
// Callers hold the apply lock, so publications land in commit order and none
// after Close.
func (t *Table) publishLocked() (uint64, error) {
	n := len(t.items)
	view := t.items[:n:n]
	t.gDeltaItems.Set(int64(len(t.ov.delta)))
	t.gTombstones.Set(int64(t.ov.nDead))
	packed := t.ov.image()
	snap := &sdb.Table{
		Name:      t.name,
		Data:      dataset.New(t.name, geom.UnitSquare, view),
		Index:     rtree.TreeOf(packed),
		Packed:    packed,
		Stats:     t.builder.Summary(),
		RawExtent: t.rawExtent,
	}
	//lint:ignore lockorder the apply lock orders publications with commits and Close; the callee is the store's snapshot installer, which takes only Store.mu and never re-enters the ingest layer
	return t.publish(snap)
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
