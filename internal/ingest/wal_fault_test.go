package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/resilience"
)

// fastRetry keeps fault tests quick: 2 retries, microsecond backoff.
func fastRetry() *resilience.Retryer {
	return resilience.NewRetryer(resilience.RetryPolicy{Max: 2, Base: time.Microsecond, Cap: 10 * time.Microsecond}, 1)
}

// noRetry disables retries entirely so a single injected fault is terminal.
func noRetry() *resilience.Retryer {
	return resilience.NewRetryer(resilience.RetryPolicy{Max: -1}, 1)
}

func faultWAL(t *testing.T, retry *resilience.Retryer) (*faultfs.Injector, *WAL, string) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.Disk(), 42)
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := CreateWALFS(inj, retry, path, testCheckpoint())
	if err != nil {
		t.Fatalf("CreateWALFS: %v", err)
	}
	return inj, w, path
}

func mkBatch(seq uint64) Batch {
	return Batch{Seq: seq, Inserts: []Insert{{ID: int(seq * 10), Rect: geom.NewRect(0.1, 0.1, 0.2, 0.2)}}}
}

// A transient fsync failure must be absorbed by retry: the commit succeeds,
// the retry is counted, and replay sees the batch.
func TestWALSyncRetriesTransientFault(t *testing.T) {
	inj, w, path := faultWAL(t, fastRetry())
	inj.Add(faultfs.Fault{Op: faultfs.OpSync, Nth: 1, Count: 1})
	if err := w.Commit(mkBatch(4)); err != nil {
		t.Fatalf("Commit should succeed via retry: %v", err)
	}
	w.Close()
	_, cp, batches, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if cp.Seq != 3 || len(batches) != 1 || batches[0].Seq != 4 {
		t.Fatalf("replay = cp %d + %d batches, want cp 3 + batch 4", cp.Seq, len(batches))
	}
}

// A torn short write must be rewound and rewritten on retry, leaving a
// clean record on disk rather than a half-record followed by a full one.
func TestWALTornWriteRewound(t *testing.T) {
	inj, w, path := faultWAL(t, fastRetry())
	inj.Add(faultfs.Fault{Op: faultfs.OpWrite, Nth: 1, Torn: 5, Count: 1})
	if err := w.Commit(mkBatch(4)); err != nil {
		t.Fatalf("Commit should succeed after rewind+retry: %v", err)
	}
	w.Close()
	data, err := faultfs.Disk().ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, batches, goodLen, err := parseWAL(data)
	if err != nil || goodLen != int64(len(data)) {
		t.Fatalf("parse = %v, goodLen %d of %d; want fully intact file", err, goodLen, len(data))
	}
	if cp.Seq != 3 || len(batches) != 1 || !sameBatch(batches[0], mkBatch(4)) {
		t.Fatalf("replay wrong: cp %d, %d batches", cp.Seq, len(batches))
	}
}

// A commit whose fsync fails for good must return the error and leave the
// file at its durable prefix — only the checkpoint — with the log still
// usable: once the fault clears, the same batch commits, once.
func TestWALCommitFsyncFaultLeavesDurablePrefix(t *testing.T) {
	inj, w, path := faultWAL(t, noRetry())
	cpLen := fileSize(t, path)
	inj.Add(faultfs.Fault{Op: faultfs.OpSync})
	if err := w.Commit(mkBatch(4)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Commit = %v, want injected fsync failure", err)
	}
	if got := fileSize(t, path); got != cpLen {
		t.Fatalf("file holds %d bytes after the failed commit, want the checkpoint's %d", got, cpLen)
	}
	_, cp, batches, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil || cp.Seq != 3 || len(batches) != 0 {
		t.Fatalf("reopen after failed commit = cp %d + %d batches, %v; want the checkpoint alone", cp.Seq, len(batches), err)
	}
	inj.Clear()
	if err := w.Commit(mkBatch(4)); err != nil {
		t.Fatalf("Commit after fault cleared: %v", err)
	}
	w.Close()
	_, cp, batches, err = OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil || cp.Seq != 3 || len(batches) != 1 || !sameBatch(batches[0], mkBatch(4)) {
		t.Fatalf("after the retried commit: cp %d + %d batches, %v; want cp 3 + batch 4", cp.Seq, len(batches), err)
	}
}

// Satellite: ENOSPC during a batch write must fail the commit with an error
// that unwraps to syscall.ENOSPC, leave the log unpoisoned, and commit
// cleanly once space frees up.
func TestWALCommitENOSPC(t *testing.T) {
	inj, w, path := faultWAL(t, fastRetry())
	inj.Add(faultfs.Fault{Op: faultfs.OpWrite, Err: faultfs.ErrNoSpace})
	err := w.Commit(mkBatch(4))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Commit = %v, want ENOSPC", err)
	}
	if got := inj.Injected(faultfs.OpWrite); got != 3 {
		t.Fatalf("write attempts = %d, want 3 (1 + 2 retries)", got)
	}
	inj.Clear() // space freed
	if err := w.Commit(mkBatch(4)); err != nil {
		t.Fatalf("Commit after ENOSPC cleared: %v", err)
	}
	w.Close()
	_, cp, batches, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil || cp.Seq != 3 || len(batches) != 1 {
		t.Fatalf("reopen = cp %d, %d batches, %v; want batch durable", cp.Seq, len(batches), err)
	}
}

// Satellite: a crash between the checkpoint temp-file write and the rename
// must leave the old log authoritative — recovery replays the old
// checkpoint plus every batch, and the WAL object itself stays usable.
func TestWALCheckpointRenameCrash(t *testing.T) {
	inj, w, path := faultWAL(t, noRetry())
	if err := w.Commit(mkBatch(4)); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Fault{Op: faultfs.OpRename})
	newCP := Checkpoint{Seq: 4, RawExtent: testCheckpoint().RawExtent, Items: []geom.Rect{geom.NewRect(0, 0, 1, 1)}}
	if err := w.Checkpoint(newCP); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Checkpoint = %v, want injected rename failure", err)
	}
	// Old log intact: checkpoint at seq 3 plus the batch.
	_, cp, batches, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil || cp.Seq != 3 || len(batches) != 1 {
		t.Fatalf("reopen after failed checkpoint = cp %d, %d batches, %v", cp.Seq, len(batches), err)
	}
	// And the handle is not poisoned: batches keep committing.
	inj.Clear()
	if err := w.Commit(mkBatch(5)); err != nil {
		t.Fatalf("Commit after failed checkpoint: %v", err)
	}
	w.Close()
	_, cp, batches, err = OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil || cp.Seq != 3 || len(batches) != 2 {
		t.Fatalf("final replay = cp %d, %d batches, %v; want cp 3 + 2 batches", cp.Seq, len(batches), err)
	}
}

// A transient rename failure must be absorbed by checkpoint retry.
func TestWALCheckpointRetriesRename(t *testing.T) {
	inj, w, path := faultWAL(t, fastRetry())
	if err := w.Commit(mkBatch(4)); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Fault{Op: faultfs.OpRename, Nth: 1, Count: 1})
	cp := Checkpoint{Seq: 4, RawExtent: testCheckpoint().RawExtent, Items: []geom.Rect{geom.NewRect(0, 0, 1, 1)}}
	if err := w.Checkpoint(cp); err != nil {
		t.Fatalf("Checkpoint should succeed via retry: %v", err)
	}
	w.Close()
	_, got, batches, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil || got.Seq != 4 || len(batches) != 0 {
		t.Fatalf("reopen = cp %d, %d batches, %v; want truncated to cp 4", got.Seq, len(batches), err)
	}
}

// opLog is a recording faultfs.FS: it notes every open, write, sync, rename
// and remove as "<op> <file name>" before forwarding the call, so an op an
// injected fault fails is in the log too.
type opLog struct {
	faultfs.FS
	mu  sync.Mutex
	ops []string
}

func (l *opLog) note(op, path string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, op+" "+filepath.Base(path))
}

// take returns the ops recorded so far and clears the log.
func (l *opLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := strings.Join(l.ops, ", ")
	l.ops = nil
	return ops
}

func (l *opLog) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	l.note("open", name)
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, log: l, name: name}, nil
}

func (l *opLog) Rename(oldpath, newpath string) error {
	l.note("rename", oldpath)
	return l.FS.Rename(oldpath, newpath)
}

func (l *opLog) Remove(name string) error {
	l.note("remove", name)
	return l.FS.Remove(name)
}

type opLogFile struct {
	faultfs.File
	log  *opLog
	name string
}

func (f *opLogFile) Write(p []byte) (int, error) {
	f.log.note("write", f.name)
	return f.File.Write(p)
}

func (f *opLogFile) Sync() error {
	f.log.note("sync", f.name)
	return f.File.Sync()
}

// The checkpoint file's durability protocol is write → Sync → Rename: the
// rename publishes the temp file's content, so it may only land once that
// content is on disk, and a failed fsync must fail the call before any rename,
// leaving the path as it was. Both callers of writeCheckpointFile are held to
// the exact op sequence on the temp path.
func TestWALCheckpointSyncsBeforeRename(t *testing.T) {
	cases := []struct {
		name string
		// prepare sets the path up and returns the call under test.
		prepare func(t *testing.T, fs faultfs.FS, path string) func() error
	}{
		{"create", func(t *testing.T, fs faultfs.FS, path string) func() error {
			return func() error {
				w, err := CreateWALFS(fs, noRetry(), path, testCheckpoint())
				if err == nil {
					t.Cleanup(func() { w.Close() })
				}
				return err
			}
		}},
		{"checkpoint", func(t *testing.T, fs faultfs.FS, path string) func() error {
			w, err := CreateWALFS(fs, noRetry(), path, testCheckpoint())
			if err != nil {
				t.Fatalf("CreateWALFS: %v", err)
			}
			t.Cleanup(func() { w.Close() })
			return func() error {
				return w.Checkpoint(Checkpoint{Seq: 4, RawExtent: testCheckpoint().RawExtent, Items: []geom.Rect{geom.NewRect(0, 0, 1, 1)}})
			}
		}},
	}
	for _, tc := range cases {
		for _, syncFails := range []bool{false, true} {
			name, want := tc.name, "open t.wal.tmp, write t.wal.tmp, sync t.wal.tmp, rename t.wal.tmp"
			if syncFails {
				name, want = tc.name+" fsync fails", "open t.wal.tmp, write t.wal.tmp, sync t.wal.tmp, remove t.wal.tmp"
			}
			t.Run(name, func(t *testing.T) {
				inj := faultfs.NewInjector(faultfs.Disk(), 42)
				rec := &opLog{FS: inj}
				path := filepath.Join(t.TempDir(), "t.wal")
				call := tc.prepare(t, rec, path)
				rec.take()
				before, _ := os.ReadFile(path) // nil before a create
				if syncFails {
					inj.Add(faultfs.Fault{Op: faultfs.OpSync, Path: ".tmp"})
				}
				err := call()
				if got := rec.take(); got != want {
					t.Errorf("ops = %s\nwant  %s", got, want)
				}
				if !syncFails {
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					return
				}
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Errorf("%s = %v, want the injected fsync failure", tc.name, err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
					t.Errorf("%s changed after its temp file's fsync failed: %d bytes, was %d", path, len(after), len(before))
				}
			})
		}
	}
}
