package histogram

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

func TestGHBuilderValidation(t *testing.T) {
	if _, err := NewGHBuilder("x", -1); err == nil {
		t.Error("negative level accepted")
	}
	b, err := NewGHBuilder("x", 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Level() != 3 || b.Len() != 0 {
		t.Fatalf("builder = %d/%d", b.Level(), b.Len())
	}
	if err := b.Add(geom.NewRect(0.5, 0.5, 1.5, 1.5)); err == nil {
		t.Error("non-normalized item accepted")
	}
	if err := b.Add(geom.Rect{MinX: 0.5, MaxX: 0.4, MinY: 0, MaxY: 0.1}); err == nil {
		t.Error("invalid item accepted")
	}
	if err := b.Remove(geom.NewRect(0, 0, 0.1, 0.1)); err == nil {
		t.Error("Remove on empty builder accepted")
	}
}

// TestGHBuilderMatchesBatchBuild verifies the incremental path produces the
// exact same histogram as GH.Build.
func TestGHBuilderMatchesBatchBuild(t *testing.T) {
	d := datagen.Cluster("d", 2000, 0.4, 0.6, 0.1, 0.02, 110)
	level := 5

	batchRaw, err := MustGH(level).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchRaw.(*GHSummary)

	b, err := GHBuilderFrom(d, level)
	if err != nil {
		t.Fatal(err)
	}
	inc := b.Summary()
	if inc.ItemCount() != batch.ItemCount() || inc.Level() != batch.Level() {
		t.Fatalf("identity mismatch: %d/%d vs %d/%d",
			inc.ItemCount(), inc.Level(), batch.ItemCount(), batch.Level())
	}
	if !slices.Equal(inc.cells, batch.cells) {
		t.Fatal("incremental cells differ from batch build")
	}
}

// TestGHBuilderRemoveRestores verifies Add followed by Remove is an exact
// no-op: the cell sums are integers, so the cancellation is bit for bit.
func TestGHBuilderRemoveRestores(t *testing.T) {
	d := datagen.Uniform("d", 500, 0.05, 111)
	b, err := GHBuilderFrom(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Summary()

	rng := rand.New(rand.NewSource(112))
	extra := make([]geom.Rect, 200)
	for i := range extra {
		x, y := rng.Float64()*0.8, rng.Float64()*0.8
		extra[i] = geom.NewRect(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2)
	}
	for _, r := range extra {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 700 {
		t.Fatalf("Len after adds = %d", b.Len())
	}
	for _, r := range extra {
		if err := b.Remove(r); err != nil {
			t.Fatal(err)
		}
	}
	after := b.Summary()
	if after.ItemCount() != before.ItemCount() {
		t.Fatalf("ItemCount %d != %d", after.ItemCount(), before.ItemCount())
	}
	if !slices.Equal(after.cells, before.cells) {
		t.Fatal("add+remove did not restore the histogram")
	}
}

// TestGHBuilderRandomInterleavings is the property behind the ingest front's
// per-record maintenance: whatever order Adds and Removes arrive in, the
// builder holds the histogram GH.Build computes from the survivors. Per seed
// (levels 3–7) a builder starts from a random dataset, then 600 steps
// interleave Adds of fresh items with Removes drawn from the live set —
// starting items included — over every kind historyItem draws, checked every
// 150 steps.
//
// Every cell, the item count and Estimate against a fixed partner histogram
// must match bit for bit: the cell sums are exact, so x + a − a = x.
func TestGHBuilderRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		level := 3 + int(seed%5)
		gh := MustGH(level)
		partner, err := gh.Build(dataset.New("partner", geom.UnitSquare, historyItems(rng, 400)))
		if err != nil {
			t.Fatal(err)
		}
		live := historyItems(rng, 100+rng.Intn(200))
		b, err := GHBuilderFrom(dataset.New("live", geom.UnitSquare, live), level)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step int) {
			t.Helper()
			batchRaw, err := gh.Build(dataset.New("live", geom.UnitSquare, append([]geom.Rect(nil), live...)))
			if err != nil {
				t.Fatal(err)
			}
			batch, inc := batchRaw.(*GHSummary), b.Summary()
			if inc.ItemCount() != batch.ItemCount() || inc.ItemCount() != len(live) {
				t.Fatalf("seed %d level %d step %d: builder holds %d items, batch %d, live %d",
					seed, level, step, inc.ItemCount(), batch.ItemCount(), len(live))
			}
			for i, c := range inc.cells {
				if want := batch.cells[i]; c != want {
					t.Fatalf("seed %d level %d step %d cell %d: builder %+v, batch %+v", seed, level, step, i, c, want)
				}
			}
			got, err := gh.Estimate(inc, partner)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gh.Estimate(batch, partner)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d level %d step %d: builder estimate %+v, batch %+v", seed, level, step, got, want)
			}
		}
		for step := 1; step <= 600; step++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				r := historyItem(rng, byte(rng.Intn(4)))
				if err := b.Add(r); err != nil {
					t.Fatal(err)
				}
				live = append(live, r)
			} else {
				k := rng.Intn(len(live))
				if err := b.Remove(live[k]); err != nil {
					t.Fatalf("seed %d step %d: Remove(%v): %v", seed, step, live[k], err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if step%150 == 0 {
				check(step)
			}
		}
	}
}

// TestGHBuilderRemoveUnderflow verifies the Remove contract: removing a
// rectangle that was never added is detected by a cell going negative and
// rejected without mutating the histogram — on its corner counts, and on its
// area and edge sums where the corner counts would pass.
func TestGHBuilderRemoveUnderflow(t *testing.T) {
	b, err := NewGHBuilder("d", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(geom.NewRect(0.1, 0.1, 0.3, 0.3)); err != nil {
		t.Fatal(err)
	}
	before := b.Summary()

	// Never-added rectangle in a different part of the grid: its corner
	// cells hold no counts, so Remove must fail and change nothing.
	if err := b.Remove(geom.NewRect(0.7, 0.7, 0.9, 0.9)); err == nil {
		t.Fatal("Remove of never-added rectangle accepted")
	}
	if b.Len() != 1 {
		t.Fatalf("Len after rejected Remove = %d, want 1", b.Len())
	}
	if !slices.Equal(b.Summary().cells, before.cells) {
		t.Fatal("rejected Remove mutated the histogram")
	}

	// Points on the four corners of a never-added rectangle give each of its
	// corner cells the count its removal subtracts, but none of its area or
	// edge length: O, H and V refuse it.
	box := geom.NewRect(0.6, 0.6, 0.8, 0.8)
	for _, p := range box.Corners() {
		if err := b.Add(geom.NewRect(p.X, p.Y, p.X, p.Y)); err != nil {
			t.Fatal(err)
		}
	}
	before = b.Summary()
	if err := b.Remove(box); err == nil {
		t.Fatal("Remove of a never-added rectangle over added corner points accepted")
	}
	if b.Len() != 5 || !slices.Equal(b.Summary().cells, before.cells) {
		t.Fatal("rejected Remove mutated the histogram")
	}
	for _, p := range box.Corners() {
		if err := b.Remove(geom.NewRect(p.X, p.Y, p.X, p.Y)); err != nil {
			t.Fatal(err)
		}
	}

	// A degenerate (point) rectangle stacks all four corners in one cell:
	// the check must require four counts there, not one.
	pt := geom.NewRect(0.55, 0.55, 0.55, 0.55)
	if err := b.Remove(pt); err == nil {
		t.Fatal("Remove of never-added point accepted")
	}
	if err := b.Add(pt); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(pt); err != nil {
		t.Fatalf("Remove of added point rejected: %v", err)
	}

	// Legitimate removal still works after the rejections.
	if err := b.Remove(geom.NewRect(0.1, 0.1, 0.3, 0.3)); err != nil {
		t.Fatalf("Remove of added rectangle rejected: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after removals = %d, want 0", b.Len())
	}
}

// TestGHBuilderSnapshotIsolation verifies snapshots are unaffected by later
// updates.
func TestGHBuilderSnapshotIsolation(t *testing.T) {
	b, _ := NewGHBuilder("d", 3)
	if err := b.Add(geom.NewRect(0.1, 0.1, 0.2, 0.2)); err != nil {
		t.Fatal(err)
	}
	snap := b.Summary()
	c0 := snap.cells[0].C
	if err := b.Add(geom.NewRect(0.01, 0.01, 0.05, 0.05)); err != nil {
		t.Fatal(err)
	}
	if snap.cells[0].C != c0 {
		t.Fatal("snapshot mutated by later Add")
	}
	if b.Summary().ItemCount() != 2 || snap.ItemCount() != 1 {
		t.Fatal("item counts wrong")
	}
}

// TestGHBuilderEstimatesTrackUpdates runs a live scenario: the estimate from
// a maintained histogram tracks the exact selectivity through churn.
func TestGHBuilderEstimatesTrackUpdates(t *testing.T) {
	level := 6
	gh := MustGH(level)
	staticSide := datagen.Uniform("static", 4000, 0.01, 113)
	staticSum, err := gh.Build(staticSide)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewGHBuilder("live", level)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(114))
	var live []geom.Rect
	mk := func() geom.Rect {
		x, y := rng.Float64()*0.99, rng.Float64()*0.99
		return geom.NewRect(x, y, math.Min(1, x+rng.Float64()*0.01), math.Min(1, y+rng.Float64()*0.01))
	}
	// Grow to 3000 items, then churn: each step removes one random item and
	// inserts a new one. Periodically compare the maintained estimate with a
	// freshly built histogram's estimate — they must agree bit for bit.
	for i := 0; i < 3000; i++ {
		r := mk()
		live = append(live, r)
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 300; step++ {
		idx := rng.Intn(len(live))
		if err := b.Remove(live[idx]); err != nil {
			t.Fatal(err)
		}
		live[idx] = mk()
		if err := b.Add(live[idx]); err != nil {
			t.Fatal(err)
		}
		if step%100 != 0 {
			continue
		}
		liveEst, err := gh.Estimate(b.Summary(), staticSum)
		if err != nil {
			t.Fatal(err)
		}
		cp := make([]geom.Rect, len(live))
		copy(cp, live)
		freshSum, err := gh.Build(dataset.New("fresh", geom.UnitSquare, cp))
		if err != nil {
			t.Fatal(err)
		}
		freshEst, err := gh.Estimate(freshSum, staticSum)
		if err != nil {
			t.Fatal(err)
		}
		if liveEst != freshEst {
			t.Fatalf("step %d: maintained estimate %g deviates from fresh %g",
				step, liveEst.PairCount, freshEst.PairCount)
		}
	}
}
