// Package ingest turns the read-only engine into a read/write system under
// sustained mutation traffic. It follows the read/write split of adaptive
// spatial join systems: readers join an immutable packed base, and every
// table keeps on the write side an overlay on that base — tombstones over its
// slots and the items inserted since — beside an
// incrementally-maintained Geometric Histogram. Each batch publishes a
// snapshot that shares the base and carries the overlay, so a write costs its
// batch, not the table; in the background a fold builds a new base (a pack
// of the live items) and starts an empty overlay once the churn
// since the last fold passes a share of the base (RepackPolicy). The fold is
// one critical section under the table's apply lock, like a commit: a write
// that arrives during it waits it out.
//
// Durability comes from a per-table write-ahead log: length-prefixed,
// CRC-checked records holding one checkpoint (the table's full state) at the
// head and one record per committed batch after it. A commit — the record's
// write and fsync, the apply, the publish — is one critical section under the
// table's apply lock, so a table's batches commit one at a time, each pays
// its own fsync, and only a durable batch is ever applied or published.
// Replay after a crash reconstructs exactly the acknowledged state; a torn
// tail record — the signature of a crash mid-write — is discarded and
// truncated away.
package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/resilience"
)

// Record kinds. A WAL file is [checkpoint record][batch record]*.
const (
	recCheckpoint byte = 1
	recBatch      byte = 2
)

// walMagic heads every WAL file so a stray file is rejected before parsing.
var walMagic = [8]byte{'S', 'D', 'B', 'W', 'A', 'L', '0', '1'}

// Insert is one insertion in a batch: the assigned item ID plus the
// rectangle in normalized (unit-square) coordinates.
type Insert struct {
	ID   int
	Rect geom.Rect
}

// Batch is the WAL's unit of atomicity: a group of inserts and deletes that
// commit together. Seq numbers are per-table, strictly increasing, assigned
// by the table mutation front.
type Batch struct {
	Seq     uint64
	Inserts []Insert
	Deletes []int
}

// Records returns the number of mutations the batch carries.
func (b *Batch) Records() int { return len(b.Inserts) + len(b.Deletes) }

// Checkpoint is a full table state: the raw (pre-normalization) extent, the
// items slice in ID order — including tombstoned positions, so IDs stay
// stable across restarts — and the sorted tombstone set. Seq is the last
// batch folded into the state; replay resumes from the first batch record
// with a higher sequence.
type Checkpoint struct {
	Seq       uint64
	RawExtent geom.Rect
	Items     []geom.Rect
	Deleted   []int
}

// WAL is a per-table append-only write-ahead log. Commit writes one batch
// record and fsyncs it before returning, so a batch is durable exactly when
// Commit succeeds. A WAL is not safe for concurrent use: its owner, the
// table mutation front, calls it only under its apply lock, which also makes
// the record order the apply order.
//
// Failure handling: transient write/fsync errors are retried with backoff
// after rewinding the file to its durable prefix, so a torn or short write
// never leaves half a record where replay would find it. A failed Commit (all
// retries exhausted) leaves the file at that prefix — the batch is
// unacknowledged, but the log stays usable and the next Commit starts on a
// record boundary. Only a failed rewind — the file offset is then unknown —
// poisons the log.
type WAL struct {
	path  string
	fs    faultfs.FS
	retry *resilience.Retryer

	f       faultfs.File
	seq     uint64 // highest seq durable in the file
	durable int64  // intact-prefix length of the file
	err     error  // fatal-only: set when the file state is unknowable

	// fsyncObs, when set, receives the duration of every real fsync — the
	// benchmark harness uses it to report fsync percentiles. The obs
	// histogram is always fed regardless.
	fsyncObs func(time.Duration)
}

// CreateWALFS writes a fresh WAL at path on fs containing only the
// checkpoint and returns it open for appends (nil retry = default policy).
// The file is built in a temp sibling and renamed into place after an fsync,
// so a crash mid-create never leaves a half-written log behind.
func CreateWALFS(fs faultfs.FS, retry *resilience.Retryer, path string, cp Checkpoint) (*WAL, error) {
	if retry == nil {
		retry = resilience.NewRetryer(resilience.RetryPolicy{}, 0)
	}
	f, n, err := writeCheckpointFile(fs, path, cp)
	if err != nil {
		return nil, err
	}
	return &WAL{path: path, fs: fs, retry: retry, f: f, durable: n, seq: cp.Seq}, nil
}

// OpenWALFS replays an existing WAL on fs (nil retry = default policy). It
// returns the checkpoint, every intact batch record after it, and the log
// opened for appends. A torn or corrupt tail (crash mid-write) is truncated
// away; corruption anywhere before the tail is an error, since silently
// dropping acknowledged batches would lose committed data.
func OpenWALFS(fs faultfs.FS, retry *resilience.Retryer, path string) (*WAL, Checkpoint, []Batch, error) {
	if retry == nil {
		retry = resilience.NewRetryer(resilience.RetryPolicy{}, 0)
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, Checkpoint{}, nil, err
	}
	cp, batches, goodLen, err := parseWAL(data)
	if err != nil {
		return nil, Checkpoint{}, nil, fmt.Errorf("ingest: wal %s: %w", path, err)
	}
	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, Checkpoint{}, nil, err
	}
	if goodLen < int64(len(data)) {
		// Torn tail: drop the partial record so future appends start on a
		// record boundary.
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, Checkpoint{}, nil, err
		}
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, Checkpoint{}, nil, err
	}
	top := cp.Seq
	if n := len(batches); n > 0 {
		top = batches[n-1].Seq
	}
	return &WAL{path: path, fs: fs, retry: retry, f: f, durable: goodLen, seq: top}, cp, batches, nil
}

// SetFsyncObserver installs a callback receiving each real fsync's duration.
func (w *WAL) SetFsyncObserver(fn func(time.Duration)) { w.fsyncObs = fn }

// Commit appends the batch's record and fsyncs it: when Commit returns nil
// the batch is durable. Each write+fsync attempt that fails rewinds the file
// to the durable prefix before backing off, so a retry rewrites the record
// from a record boundary; when retries are exhausted the file is left at that
// prefix and the batch is not in the log.
func (w *WAL) Commit(b Batch) error {
	if w.err != nil {
		return w.err
	}
	if b.Seq <= w.seq {
		return fmt.Errorf("ingest: wal %s: batch seq %d not after %d", w.path, b.Seq, w.seq)
	}
	rec := appendRecord(nil, encodeBatch(b))
	err := w.retry.Do(func() error {
		if _, err := w.f.Write(rec); err != nil {
			return err
		}
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			return err
		}
		d := time.Since(start)
		mWALFsync.Observe(d.Seconds())
		if w.fsyncObs != nil {
			w.fsyncObs(d)
		}
		return nil
	}, func(error) error {
		mWALRetry["sync"].Inc()
		return w.rewind()
	})
	if err != nil {
		if w.err == nil {
			// Retries exhausted on a transient error: leave the file rewound
			// to its durable prefix so the next commit starts clean.
			if rerr := w.rewind(); rerr != nil {
				return rerr
			}
		}
		return err
	}
	w.seq = b.Seq
	w.durable += int64(len(rec))
	return nil
}

// rewind truncates the file back to its durable prefix after a failed
// write or fsync, restoring the invariant that the file ends on a record
// boundary. A rewind failure leaves the on-disk state unknowable and
// poisons the log.
func (w *WAL) rewind() error {
	if err := w.f.Truncate(w.durable); err != nil {
		return w.poison(fmt.Errorf("ingest: wal %s: rewind truncate: %w", w.path, err))
	}
	if _, err := w.f.Seek(w.durable, io.SeekStart); err != nil {
		return w.poison(fmt.Errorf("ingest: wal %s: rewind seek: %w", w.path, err))
	}
	return nil
}

// Checkpoint atomically replaces the log with a single checkpoint record —
// the truncate-on-repack step. The caller must guarantee cp reflects every
// batch committed so far (the table mutation front calls this under its
// apply lock). The new file is durable before the old one is replaced.
//
// Failure is non-destructive: each attempt builds a temp sibling, so until
// the rename lands the old log — checkpoint plus full batch history — keeps
// serving, and the caller may simply try again on the next re-pack.
func (w *WAL) Checkpoint(cp Checkpoint) error {
	if w.err != nil {
		return w.err
	}
	var f faultfs.File
	var n int64
	err := w.retry.Do(func() error {
		var werr error
		f, n, werr = writeCheckpointFile(w.fs, w.path, cp)
		return werr
	}, func(error) error {
		mWALRetry["checkpoint"].Inc()
		return nil
	})
	if err != nil {
		return err
	}
	w.f.Close()
	w.f = f
	w.seq = cp.Seq
	w.durable = n
	return nil
}

// Close flushes nothing (every committed batch is already durable) and
// releases the file handle.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if w.err == nil {
		w.err = fmt.Errorf("ingest: wal %s: closed", w.path)
	}
	return err
}

func (w *WAL) poison(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// writeCheckpointFile builds path's content (magic + one checkpoint record)
// in a temp sibling, fsyncs it, and renames it into place, returning the
// open handle positioned for appends and the file's length.
func writeCheckpointFile(fs faultfs.FS, path string, cp Checkpoint) (faultfs.File, int64, error) {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	buf := append([]byte(nil), walMagic[:]...)
	buf = appendRecord(buf, encodeCheckpoint(cp))
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fs.Remove(tmp)
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return nil, 0, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		f.Close()
		fs.Remove(tmp)
		return nil, 0, err
	}
	return f, int64(len(buf)), nil
}

// ---- record encoding ---------------------------------------------------

// appendRecord frames one payload: [u32 len][u32 crc32(payload)][payload].
func appendRecord(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func appendRect(dst []byte, r geom.Rect) []byte {
	for _, v := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func encodeBatch(b Batch) []byte {
	buf := make([]byte, 0, 1+8+4+len(b.Inserts)*40+4+len(b.Deletes)*8)
	buf = append(buf, recBatch)
	buf = binary.LittleEndian.AppendUint64(buf, b.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Inserts)))
	for _, in := range b.Inserts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.ID))
		buf = appendRect(buf, in.Rect)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Deletes)))
	for _, id := range b.Deletes {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func encodeCheckpoint(cp Checkpoint) []byte {
	buf := make([]byte, 0, 1+8+32+4+len(cp.Items)*32+4+len(cp.Deleted)*8)
	buf = append(buf, recCheckpoint)
	buf = binary.LittleEndian.AppendUint64(buf, cp.Seq)
	buf = appendRect(buf, cp.RawExtent)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cp.Items)))
	for _, r := range cp.Items {
		buf = appendRect(buf, r)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cp.Deleted)))
	for _, id := range cp.Deleted {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// ---- record decoding ---------------------------------------------------

// parseWAL decodes a full WAL image: magic, one checkpoint, then batches.
// It returns the byte length of the intact prefix; a torn tail (short
// header, short payload, or CRC mismatch on the final record) is reported
// via goodLen < len(data) rather than as an error. Corruption followed by
// more intact records is an error: that is not a crash signature. The
// batches returned are always a prefix, in order, of the ones in the file,
// and no intact record lies past goodLen (FuzzParseWAL).
func parseWAL(data []byte) (cp Checkpoint, batches []Batch, goodLen int64, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic[:]) {
		return cp, nil, 0, fmt.Errorf("bad magic (not a WAL file)")
	}
	off := len(walMagic)
	sawCheckpoint := false
	for off < len(data) {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			// A crash tears only the file's final record. A complete frame
			// that fails its CRC with more bytes after it is corruption in
			// the middle of the log — refusing is better than silently
			// dropping acknowledged batches.
			if off+8 <= len(data) {
				if n := int(binary.LittleEndian.Uint32(data[off : off+4])); n >= 1 && off+8+n < len(data) {
					return cp, nil, 0, fmt.Errorf("corrupt record at offset %d (not at tail)", off)
				}
			}
			// Torn tail: the crash signature. The checkpoint itself must be
			// intact — a torn head means the file never finished creation,
			// which the temp+rename protocol rules out.
			if !sawCheckpoint {
				return cp, nil, 0, fmt.Errorf("checkpoint record torn or missing")
			}
			// A length field damaged into something longer than the rest of
			// the file reads as a short payload, the tail's signature, however
			// many acknowledged batches follow it: a tail is torn only if no
			// intact record starts anywhere after it.
			if at := intactRecordAfter(data, off); at >= 0 {
				return cp, nil, 0, fmt.Errorf("corrupt record at offset %d (intact record follows at %d)", off, at)
			}
			return cp, batches, int64(off), nil
		}
		kind := payload[0]
		switch {
		case kind == recCheckpoint && !sawCheckpoint:
			cp, err = decodeCheckpoint(payload)
			if err != nil {
				return cp, nil, 0, err
			}
			sawCheckpoint = true
		case kind == recBatch && sawCheckpoint:
			b, err := decodeBatch(payload)
			if err != nil {
				return cp, nil, 0, err
			}
			batches = append(batches, b)
		default:
			return cp, nil, 0, fmt.Errorf("unexpected record kind %d at offset %d", kind, off)
		}
		off = next
	}
	if !sawCheckpoint {
		return cp, nil, 0, fmt.Errorf("no checkpoint record")
	}
	return cp, batches, int64(off), nil
}

// nextRecord decodes the record at off, returning its payload and the next
// offset. ok is false when the record is torn (short or CRC-corrupt).
func nextRecord(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	body := data[off+8:]
	if n < 1 || n > len(body) {
		return nil, 0, false
	}
	payload = body[:n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

// intactRecordAfter returns the first offset past off at which an intact
// record frame starts, or -1. What it scans is the failed record at off up to
// the end of the file — one record's bytes when that is a torn tail — and a
// frame's checksum is only computed where its length fits the file.
func intactRecordAfter(data []byte, off int) int {
	for at := off + 1; at+8 < len(data); at++ {
		if _, _, ok := nextRecord(data, at); ok {
			return at
		}
	}
	return -1
}

// reader walks a payload with bounds checking; failed stays sticky.
type reader struct {
	b      []byte
	off    int
	failed bool
}

func (r *reader) u64() uint64 {
	if r.failed || r.off+8 > len(r.b) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off : r.off+8])
	r.off += 8
	return v
}

func (r *reader) u32() uint32 {
	if r.failed || r.off+4 > len(r.b) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off : r.off+4])
	r.off += 4
	return v
}

func (r *reader) rect() geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(r.u64()), MinY: math.Float64frombits(r.u64()),
		MaxX: math.Float64frombits(r.u64()), MaxY: math.Float64frombits(r.u64()),
	}
}

func decodeBatch(payload []byte) (Batch, error) {
	r := &reader{b: payload, off: 1}
	b := Batch{Seq: r.u64()}
	nIns := int(r.u32())
	if r.failed || nIns > (len(payload)/40)+1 {
		return b, fmt.Errorf("batch record: bad insert count")
	}
	b.Inserts = make([]Insert, 0, nIns)
	for i := 0; i < nIns; i++ {
		id := int(r.u64())
		b.Inserts = append(b.Inserts, Insert{ID: id, Rect: r.rect()})
	}
	nDel := int(r.u32())
	if r.failed || nDel > (len(payload)/8)+1 {
		return b, fmt.Errorf("batch record: bad delete count")
	}
	b.Deletes = make([]int, 0, nDel)
	for i := 0; i < nDel; i++ {
		b.Deletes = append(b.Deletes, int(r.u64()))
	}
	if r.failed || r.off != len(payload) {
		return b, fmt.Errorf("batch record: truncated or trailing bytes")
	}
	return b, nil
}

func decodeCheckpoint(payload []byte) (Checkpoint, error) {
	r := &reader{b: payload, off: 1}
	cp := Checkpoint{Seq: r.u64(), RawExtent: r.rect()}
	nItems := int(r.u32())
	if r.failed || nItems > (len(payload)/32)+1 {
		return cp, fmt.Errorf("checkpoint record: bad item count")
	}
	cp.Items = make([]geom.Rect, 0, nItems)
	for i := 0; i < nItems; i++ {
		cp.Items = append(cp.Items, r.rect())
	}
	nDel := int(r.u32())
	if r.failed || nDel > (len(payload)/8)+1 {
		return cp, fmt.Errorf("checkpoint record: bad tombstone count")
	}
	cp.Deleted = make([]int, 0, nDel)
	for i := 0; i < nDel; i++ {
		cp.Deleted = append(cp.Deleted, int(r.u64()))
	}
	if r.failed || r.off != len(payload) {
		return cp, fmt.Errorf("checkpoint record: truncated or trailing bytes")
	}
	return cp, nil
}
