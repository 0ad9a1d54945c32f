package rtree

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/geom"
)

func TestPackedJoinMatchesPointerJoin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		as, bs []geom.Rect
	}{
		{"uniform", randRects(1200, 21), randRects(1100, 22)},
		{"clustered", clusteredRects(900, 23), clusteredRects(950, 24)},
		{"asymmetric", randRects(3000, 25), randRects(120, 26)},
		{"tiny", randRects(5, 27), randRects(7, 28)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ta, pa := packOf(t, tc.as)
			tb, pb := packOf(t, tc.bs)
			want := Join(ta, tb)
			var got []JoinPair
			err := PackedJoinFuncContext(context.Background(), pa, pb, func(a, b int) {
				got = append(got, JoinPair{A: a, B: b})
			})
			if err != nil {
				t.Fatalf("PackedJoinFuncContext: %v", err)
			}
			if !pairsEqual(got, want) {
				t.Fatalf("packed join: %d pairs, pointer join: %d", len(got), len(want))
			}
			if c := PackedJoinCount(pa, pb); c != len(want) {
				t.Fatalf("PackedJoinCount = %d, want %d", c, len(want))
			}
		})
	}
}

func TestPackedJoinDifferentHeights(t *testing.T) {
	// A tall packed image against a root-leaf image exercises the mixed
	// leaf/internal descent in both directions.
	tall := randRects(2000, 31)
	short := randRects(6, 32)
	ta, pa := packOf(t, tall)
	tb, pb := packOf(t, short)
	if pa.Height() <= pb.Height() {
		t.Fatalf("want height asymmetry, got %d vs %d", pa.Height(), pb.Height())
	}
	if got, want := PackedJoinCount(pa, pb), JoinCount(ta, tb); got != want {
		t.Fatalf("tall×short = %d, want %d", got, want)
	}
	if got, want := PackedJoinCount(pb, pa), JoinCount(tb, ta); got != want {
		t.Fatalf("short×tall = %d, want %d", got, want)
	}
}

func TestPackedJoinEmptyAndDisjoint(t *testing.T) {
	empty, _ := New()
	pe := Pack(empty)
	_, pa := packOf(t, randRects(100, 33))
	if c := PackedJoinCount(pe, pa); c != 0 {
		t.Fatalf("empty×full = %d", c)
	}
	if c := PackedJoinCount(pa, pe); c != 0 {
		t.Fatalf("full×empty = %d", c)
	}
	left, _ := New()
	right, _ := New()
	for i := 0; i < 50; i++ {
		f := float64(i) * 0.01
		left.Insert(geom.NewRect(f, f, f+0.005, f+0.005), i)
		right.Insert(geom.NewRect(f+10, f, f+10.005, f+0.005), i)
	}
	if c := PackedJoinCount(Pack(left), Pack(right)); c != 0 {
		t.Fatalf("disjoint join = %d", c)
	}
}

// TestPackedJoinWideFanout exercises runs longer than one 64-bit mask word.
func TestPackedJoinWideFanout(t *testing.T) {
	as := randRects(900, 35)
	bs := randRects(800, 36)
	ta, err := BulkLoadSTR(ItemsFromRects(as), WithFanout(30, 100))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BulkLoadSTR(ItemsFromRects(bs), WithFanout(30, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PackedJoinCount(Pack(ta), Pack(tb)), JoinCount(ta, tb); got != want {
		t.Fatalf("wide-fanout packed join = %d, want %d", got, want)
	}
}

func TestPackedJoinParallelMatchesSerial(t *testing.T) {
	as := clusteredRects(2500, 41)
	bs := randRects(2400, 42)
	_, pa := packOf(t, as)
	_, pb := packOf(t, bs)
	var want []JoinPair
	if err := PackedJoinFuncContext(context.Background(), pa, pb, func(a, b int) {
		want = append(want, JoinPair{A: a, B: b})
	}); err != nil {
		t.Fatal(err)
	}
	// 0 and 1 pin the pool-size contract: no pool, the serial kernel.
	for _, workers := range []int{0, 1, 2, 3, 4, 8} {
		var got []JoinPair
		err := PackedJoinFuncParallelContext(context.Background(), pa, pb, workers, func(a, b int) {
			got = append(got, JoinPair{A: a, B: b})
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !pairsEqual(got, want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
	}
}

// TestPackedJoinParallelDeterministic pins that the merged emission order is a
// pure function of the images and the worker count.
func TestPackedJoinParallelDeterministic(t *testing.T) {
	_, pa := packOf(t, randRects(1800, 43))
	_, pb := packOf(t, randRects(1700, 44))
	runOnce := func() []JoinPair {
		var out []JoinPair
		if err := PackedJoinFuncParallelContext(context.Background(), pa, pb, 4, func(a, b int) {
			out = append(out, JoinPair{A: a, B: b})
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := runOnce()
	for i := 0; i < 3; i++ {
		again := runOnce()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d pairs, want %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: pair %d = %v, want %v", i, j, again[j], first[j])
			}
		}
	}
}

func TestPackedJoinCancellation(t *testing.T) {
	_, pa := packOf(t, randRects(4000, 45))
	_, pb := packOf(t, randRects(4000, 46))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := PackedJoinFuncContext(ctx, pa, pb, func(int, int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial: err = %v, want context.Canceled", err)
	}
	if err := PackedJoinFuncParallelContext(ctx, pa, pb, 4, func(int, int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel: err = %v, want context.Canceled", err)
	}
}

func TestPackedJoinAccounting(t *testing.T) {
	_, pa := packOf(t, randRects(1000, 47))
	_, pb := packOf(t, randRects(900, 48))
	pa.ResetAccesses()
	pb.ResetAccesses()
	PackedJoinCount(pa, pb)
	if pa.Accesses() == 0 || pb.Accesses() == 0 {
		t.Fatalf("serial join left accesses at %d/%d", pa.Accesses(), pb.Accesses())
	}
	pa.ResetAccesses()
	pb.ResetAccesses()
	if err := PackedJoinFuncParallelContext(context.Background(), pa, pb, 4, func(int, int) {}); err != nil {
		t.Fatal(err)
	}
	if pa.Accesses() == 0 || pb.Accesses() == 0 {
		t.Fatalf("parallel join left accesses at %d/%d", pa.Accesses(), pb.Accesses())
	}
}

// TestPackedJoinSharedImageHammer runs pooled joins, serial joins and range
// searches concurrently over the same two images; with -race this is the
// read-sharing safety proof for the executor's usage, where every request
// joins the one published image of each table.
func TestPackedJoinSharedImageHammer(t *testing.T) {
	_, pa := packOf(t, randRects(2500, 309))
	_, pb := packOf(t, randRects(2500, 310))
	want := PackedJoinCount(pa, pb)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // pooled joins
				for i := 0; i < 3; i++ {
					n := 0
					if err := PackedJoinFuncParallelContext(context.Background(), pa, pb, 4, func(int, int) { n++ }); err != nil {
						errs[g] = err
						return
					}
					if n != want {
						errs[g] = errors.New("pooled count mismatch under concurrency")
						return
					}
				}
			case 1: // serial joins on the same images
				for i := 0; i < 3; i++ {
					if PackedJoinCount(pa, pb) != want {
						errs[g] = errors.New("serial count mismatch under concurrency")
						return
					}
				}
			default: // range searches sharing the access counters
				var buf []int
				for i := 0; i < 200; i++ {
					buf = pa.Search(geom.NewRect(0.2, 0.2, 0.4, 0.4), buf[:0])
					buf = pb.Search(geom.NewRect(0.6, 0.1, 0.9, 0.5), buf[:0])
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestOverlapMask(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const n = 64
	var xm, ym, xM, yM [n]float64
	rects := make([]geom.Rect, n)
	for i := range rects {
		x, y := rng.Float64(), rng.Float64()
		rects[i] = geom.NewRect(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2)
		xm[i], ym[i], xM[i], yM[i] = rects[i].MinX, rects[i].MinY, rects[i].MaxX, rects[i].MaxY
	}
	for trial := 0; trial < 200; trial++ {
		x, y := rng.Float64(), rng.Float64()
		q := geom.NewRect(x, y, x+rng.Float64()*0.3, y+rng.Float64()*0.3)
		width := 1 + rng.Intn(n)
		lo := rng.Intn(n - width + 1)
		m := overlapMask(q.MinX, q.MinY, q.MaxX, q.MaxY, xm[:], ym[:], xM[:], yM[:], lo, width)
		for i := 0; i < width; i++ {
			want := q.Intersects(rects[lo+i])
			if got := m>>uint(i)&1 == 1; got != want {
				t.Fatalf("trial %d lane %d: mask=%v want %v (q=%v r=%v)", trial, i, got, want, q, rects[lo+i])
			}
		}
		if width < 64 && m>>uint(width) != 0 {
			t.Fatalf("trial %d: mask has bits above width %d: %b", trial, width, m)
		}
	}
}

func BenchmarkPackedJoin(b *testing.B) {
	as := randRects(20000, 51)
	bs := randRects(20000, 52)
	ta, _ := BulkLoadSTR(ItemsFromRects(as))
	tb, _ := BulkLoadSTR(ItemsFromRects(bs))
	pa, pb := Pack(ta), Pack(tb)
	b.Run("pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			JoinCount(ta, tb)
		}
	})
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PackedJoinCount(pa, pb)
		}
	})
}

// BenchmarkPackedJoinOverlay is what readers pay for an unfolded overlay: the
// paper's SURA ⋈ SCRC at full cardinality, two workers, with SURA carrying k
// tombstones and a delta of k uniform inserts — the shape mixed-rw's batches
// give it. k = 0 is the overlay-free join the other sizes are read against
// (EXPERIMENTS.md "O(batch) publish" derives the fold threshold from them).
func BenchmarkPackedJoinOverlay(b *testing.B) {
	sura, scrc := datagen.SURA(1).Items, datagen.SCRC(1).Items
	ta, _ := BulkLoadSTR(ItemsFromRects(sura))
	tb, _ := BulkLoadSTR(ItemsFromRects(scrc))
	base, partner := Pack(ta), Pack(tb)
	added := datagen.Uniform("added", 8000, 0.004, 9).Items
	for _, k := range []int{0, 1000, 2000, 4000, 8000} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			dead := make([]uint64, (len(sura)+63)/64)
			for i := 0; i < k; i++ {
				slot := uint(i) * uint(len(sura)/8000)
				dead[slot>>6] |= 1 << (slot & 63)
			}
			delta := MustNew()
			for i, r := range added[:k] {
				delta.Insert(r, len(sura)+i)
			}
			img := base.WithOverlay(dead, Pack(delta))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PackedJoinBatches(context.Background(), img, partner, 2, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
