package histogram

import (
	"math"
	"math/rand"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

func ghCellsEqual(a, b []ghCell, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].C-b[i].C) > tol || math.Abs(a[i].O-b[i].O) > tol ||
			math.Abs(a[i].H-b[i].H) > tol || math.Abs(a[i].V-b[i].V) > tol {
			return false
		}
	}
	return true
}

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
	if !ghCellsEqual(inc.cells, batch.cells, 1e-12) {
		t.Fatal("incremental cells differ from batch build")
	}
}

// TestGHBuilderRemoveRestores verifies Add followed by Remove is an exact
// no-op (contributions are sums, so cancellation is bitwise up to float
// rounding).
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
	if !ghCellsEqual(after.cells, before.cells, 1e-9) {
		t.Fatal("add+remove did not restore the histogram")
	}
}

// TestGHBuilderRandomInterleavings is the property behind the ingest front's
// per-record maintenance: whatever order Adds and Removes arrive in, the
// builder holds the histogram GH.Build computes from the survivors. Per seed
// (levels 3–7) a builder starts from a random dataset, then 600 steps
// interleave Adds of fresh items with Removes drawn from the live set —
// starting items included — over points, sub-cell boxes and boxes spanning
// many cells, checked every 150 steps.
//
// C and the item count must match exactly: corners are whole ±1 steps. O, H
// and V cannot be bit-for-bit, because x + a − a ≠ x in float64: adding a
// rounds away low bits of the cell sum x that subtracting a does not restore,
// and the batch build never saw a at all. They, and Estimate against a fixed
// partner histogram, must agree to 1e-9 relative (to at least one cell's
// worth, so a cell the batch leaves at 0 may carry the builder's dust).
func TestGHBuilderRandomInterleavings(t *testing.T) {
	randomItem := func(rng *rand.Rand) geom.Rect {
		x, y := rng.Float64(), rng.Float64()
		var w, h float64
		switch rng.Intn(3) {
		case 1:
			w, h = rng.Float64()*0.01, rng.Float64()*0.01
		case 2:
			w, h = rng.Float64()*0.5, rng.Float64()*0.5
		}
		return geom.NewRect(x, y, math.Min(x+w, 1), math.Min(y+h, 1))
	}
	randomItems := func(rng *rand.Rand, n int) []geom.Rect {
		items := make([]geom.Rect, n)
		for i := range items {
			items[i] = randomItem(rng)
		}
		return items
	}
	agree := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		level := 3 + int(seed%5)
		gh := MustGH(level)
		partner, err := gh.Build(dataset.New("partner", geom.UnitSquare, randomItems(rng, 400)))
		if err != nil {
			t.Fatal(err)
		}
		live := randomItems(rng, 100+rng.Intn(200))
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
				want := batch.cells[i]
				if c.C != want.C {
					t.Fatalf("seed %d level %d step %d cell %d: C = %g, batch %g", seed, level, step, i, c.C, want.C)
				}
				if !agree(c.O, want.O) || !agree(c.H, want.H) || !agree(c.V, want.V) {
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
			if !agree(got.PairCount, want.PairCount) || !agree(got.Selectivity, want.Selectivity) {
				t.Fatalf("seed %d level %d step %d: builder estimate %+v, batch %+v", seed, level, step, got, want)
			}
		}
		for step := 1; step <= 600; step++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				r := randomItem(rng)
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
// rectangle that was never added is detected via its corner counts and
// rejected without mutating the histogram.
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
	if !ghCellsEqual(b.Summary().cells, before.cells, 0) {
		t.Fatal("rejected Remove mutated the histogram")
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
	// freshly built histogram's estimate — they must agree exactly.
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
		if rel := math.Abs(liveEst.PairCount-freshEst.PairCount) / math.Max(1, freshEst.PairCount); rel > 1e-6 {
			t.Fatalf("step %d: maintained estimate %g deviates from fresh %g",
				step, liveEst.PairCount, freshEst.PairCount)
		}
	}
}
