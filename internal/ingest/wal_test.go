package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
)

func testCheckpoint() Checkpoint {
	return Checkpoint{
		Seq:       3,
		RawExtent: geom.NewRect(0, 0, 100, 50),
		Items: []geom.Rect{
			geom.NewRect(0.1, 0.1, 0.2, 0.2),
			geom.NewRect(0.3, 0.3, 0.4, 0.4),
			geom.NewRect(0.5, 0.5, 0.6, 0.6),
		},
		Deleted: []int{1},
	}
}

func sameBatch(a, b Batch) bool {
	if a.Seq != b.Seq || len(a.Inserts) != len(b.Inserts) || len(a.Deletes) != len(b.Deletes) {
		return false
	}
	for i := range a.Inserts {
		if a.Inserts[i].ID != b.Inserts[i].ID || !a.Inserts[i].Rect.Equal(b.Inserts[i].Rect) {
			return false
		}
	}
	for i := range a.Deletes {
		if a.Deletes[i] != b.Deletes[i] {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cp := testCheckpoint()
	w, err := CreateWALFS(faultfs.Disk(), nil, path, cp)
	if err != nil {
		t.Fatal(err)
	}
	batches := []Batch{
		{Seq: 4, Inserts: []Insert{{ID: 3, Rect: geom.NewRect(0.7, 0.7, 0.8, 0.8)}}},
		{Seq: 5, Deletes: []int{0, 2}},
		{Seq: 6, Inserts: []Insert{{ID: 4, Rect: geom.NewRect(0, 0, 1, 1)}}, Deletes: []int{3}},
	}
	for _, b := range batches {
		if err := w.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, cp2, got, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if cp2.Seq != cp.Seq || !cp2.RawExtent.Equal(cp.RawExtent) ||
		len(cp2.Items) != len(cp.Items) || len(cp2.Deleted) != 1 || cp2.Deleted[0] != 1 {
		t.Fatalf("checkpoint mismatch: %+v", cp2)
	}
	for i := range cp.Items {
		if !cp2.Items[i].Equal(cp.Items[i]) {
			t.Fatalf("item %d mismatch", i)
		}
	}
	if len(got) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(batches))
	}
	for i := range batches {
		if !sameBatch(got[i], batches[i]) {
			t.Fatalf("batch %d mismatch: %+v vs %+v", i, got[i], batches[i])
		}
	}

	// Commits continue after replay with the next sequence.
	if err := w2.Commit(Batch{Seq: 6}); err == nil {
		t.Fatal("stale sequence accepted after replay")
	}
	if err := w2.Commit(Batch{Seq: 7, Deletes: []int{4}}); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTail simulates a crash mid-write: every truncation point inside
// the final record must replay cleanly to the records before it.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w, err := CreateWALFS(faultfs.Disk(), nil, path, testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Batch{Seq: 4, Deletes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	fullAt := fileSize(t, path)
	if err := w.Commit(Batch{Seq: 5, Inserts: []Insert{{ID: 3, Rect: geom.NewRect(0.1, 0.1, 0.9, 0.9)}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := fullAt + 1; cut < int64(len(data)); cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, _, batches, err := OpenWALFS(faultfs.Disk(), nil, torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(batches) != 1 || batches[0].Seq != 4 {
			t.Fatalf("cut %d: replayed %d batches", cut, len(batches))
		}
		// The torn bytes must be gone so new commits land on a boundary.
		if got := fileSize(t, torn); got != fullAt {
			t.Fatalf("cut %d: file %d bytes after open, want %d", cut, got, fullAt)
		}
		if err := w2.Commit(Batch{Seq: 5, Deletes: []int{1}}); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		w3, _, batches, err := OpenWALFS(faultfs.Disk(), nil, torn)
		if err != nil || len(batches) != 2 {
			t.Fatalf("cut %d: reopen after heal: %d batches, %v", cut, len(batches), err)
		}
		w3.Close()
	}
}

// TestWALCorruptMiddle verifies corruption before the tail is an error, not
// a silent truncation — dropping acknowledged batches would lose data.
func TestWALCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w, err := CreateWALFS(faultfs.Disk(), nil, path, testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	cpLen := fileSize(t, path)
	for seq := uint64(4); seq <= 6; seq++ {
		if err := w.Commit(Batch{Seq: seq, Inserts: []Insert{{ID: int(seq - 1), Rect: geom.NewRect(0.2, 0.2, 0.3, 0.3)}}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first batch record's payload.
	data[cpLen+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenWALFS(faultfs.Disk(), nil, path); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

func TestWALCheckpointTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := CreateWALFS(faultfs.Disk(), nil, path, testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(4); seq <= 20; seq++ {
		if err := w.Commit(Batch{Seq: seq, Deletes: []int{int(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	before := fileSize(t, path)
	cp2 := Checkpoint{Seq: 20, RawExtent: geom.UnitSquare, Items: []geom.Rect{geom.NewRect(0, 0, 0.5, 0.5)}}
	if err := w.Checkpoint(cp2); err != nil {
		t.Fatal(err)
	}
	if after := fileSize(t, path); after >= before {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", before, after)
	}
	// Commits continue into the new file.
	if err := w.Commit(Batch{Seq: 21, Deletes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, cp3, batches, err := OpenWALFS(faultfs.Disk(), nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if cp3.Seq != 20 || len(batches) != 1 || batches[0].Seq != 21 {
		t.Fatalf("after checkpoint: cp seq %d, %d batches", cp3.Seq, len(batches))
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.wal")
	if err := os.WriteFile(path, []byte("definitely not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenWALFS(faultfs.Disk(), nil, path); err == nil {
		t.Fatal("garbage file accepted")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
