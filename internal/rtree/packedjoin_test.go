package rtree

import (
	"context"
	"errors"
	"runtime"
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

// TestPackedJoinAccounting pins what the kernel's counters mean now that the
// join is a sweep, against a count made from the rectangles alone: a visit is
// a tile with items of both sides, a compare is a y-test — one per pair of
// items in a tile whose x-extents overlap — a pair is a result, and the
// context is polled every cancelCheckInterval visits of a goroutine. A pool
// does the same work, and polls at most once less per worker.
func TestPackedJoinAccounting(t *testing.T) {
	as, bs := randRects(1000, 47), randRects(900, 48)
	_, pa := packOf(t, as)
	_, pb := packOf(t, bs)

	inTile := func(rs []geom.Rect) [][]int {
		out := make([][]int, numTiles)
		for i, r := range rs {
			for ty := tileOf(r.MinY); ty <= tileOf(r.MaxY); ty++ {
				for tx := tileOf(r.MinX); tx <= tileOf(r.MaxX); tx++ {
					out[ty*tileDim+tx] = append(out[ty*tileDim+tx], i)
				}
			}
		}
		return out
	}
	var visits, compares uint64
	ta, tb := inTile(as), inTile(bs)
	for t := range ta {
		if len(ta[t]) == 0 || len(tb[t]) == 0 {
			continue
		}
		visits++
		for _, i := range ta[t] {
			for _, k := range tb[t] {
				if as[i].MinX <= bs[k].MaxX && bs[k].MinX <= as[i].MaxX {
					compares++
				}
			}
		}
	}
	pairs := uint64(len(bruteJoin(as, bs)))

	for _, workers := range []int{1, 4} {
		c := &packedJoinCounters
		v0, c0, p0, polls0 := c.nodeVisits.Value(), c.leafCompares.Value(), c.outputPairs.Value(), c.cancelPolls.Value()
		if _, err := PackedJoinBatches(context.Background(), pa, pb, workers, nil, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.nodeVisits.Value() - v0; got != visits {
			t.Errorf("workers=%d: %d tiles swept, want %d", workers, got, visits)
		}
		if got := c.leafCompares.Value() - c0; got != compares {
			t.Errorf("workers=%d: %d y-tests, want %d", workers, got, compares)
		}
		if got := c.outputPairs.Value() - p0; got != pairs {
			t.Errorf("workers=%d: %d pairs, want %d", workers, got, pairs)
		}
		if got, most := c.cancelPolls.Value()-polls0, visits/cancelCheckInterval; got > most || got+uint64(workers) <= most {
			t.Errorf("workers=%d: %d polls, want within %d below %d", workers, got, workers-1, most)
		}
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
			default: // range searches over the same tile runs
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

// BenchmarkPackedJoin is the kernel number without bench/: the four paper
// pairs at join-paper's scales (CAS ⋈ CAR at 0.1, the rest at 1), each as the
// pointer join, the serial kernel and the kernel on a pool of GOMAXPROCS — so
// `-cpu 1,2` reads the pool's speedup on fixed work (EXPERIMENTS.md "Tile
// sweep") — and the uniform 20 000 ⋈ 20 000 the earlier snapshots recorded.
func BenchmarkPackedJoin(b *testing.B) {
	for _, in := range []struct {
		name  string
		scale float64 // of the named paper pair; 0 = the uniform input
	}{{"uniform-20k", 0}, {"TS-TCB", 1}, {"SP-SPG", 1}, {"SCRC-SURA", 1}, {"CAS-CAR", 0.1}} {
		name, as, bs := in.name, randRects(20000, 51), randRects(20000, 52)
		if in.scale > 0 {
			p, err := datagen.PairByName(name, in.scale)
			if err != nil {
				b.Fatal(err)
			}
			as, bs = p.A.Items, p.B.Items
		}
		ta, _ := BulkLoadSTR(ItemsFromRects(as))
		tb, _ := BulkLoadSTR(ItemsFromRects(bs))
		pa, pb := Pack(ta), Pack(tb)
		b.Run(name+"/pointer", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				JoinCount(ta, tb)
			}
		})
		b.Run(name+"/packed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PackedJoinBatches(context.Background(), pa, pb, 1, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/packed-pool", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PackedJoinBatches(context.Background(), pa, pb, runtime.GOMAXPROCS(0), nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// BenchmarkPackedJoinCrossover is the measurement behind sdb's
// parallelJoinMinItems: multiway-window's first join, SCRC ⋈ SURA under the
// workload's 0.3-side window on SCRC's cluster and without it, at summed
// cardinalities from 1 Ki to 40 000 (scale 0.2), serial against a pool of two.
// Run with -cpu 2; EXPERIMENTS.md "Tile sweep" has the table.
func BenchmarkPackedJoinCrossover(b *testing.B) {
	win := geom.NewRect(0.35, 0.65, 0.65, 0.95)
	for _, n := range []int{512, 1024, 2048, 4096, 8192, 12288, 16384, 20000} {
		scale := float64(n) / datagen.CardSCRC
		ta, _ := BulkLoadSTR(ItemsFromRects(datagen.SCRC(scale).Items))
		tb, _ := BulkLoadSTR(ItemsFromRects(datagen.SURA(scale).Items))
		pa, pb := Pack(ta), Pack(tb)
		for _, w := range []struct {
			name string
			win  *geom.Rect
		}{{"full", nil}, {"windowed", &win}} {
			for _, workers := range []int{1, 2} {
				b.Run(w.name+"/items="+strconv.Itoa(2*n)+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := PackedJoinBatches(context.Background(), pa, pb, workers, w.win, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
