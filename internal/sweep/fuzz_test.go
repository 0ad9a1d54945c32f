package sweep

import (
	"math"
	"testing"

	"spatialsel/internal/geom"
)

// decodeFuzzRects splits data into 5-byte records (x, y, w, h, side), at most
// 256 of them, and returns the rectangles whose side byte is even as as and
// the rest as bs. A coordinate byte is a signed eighth, -128 standing for
// -0; w and h are eighths in [0, 15/8], so 0 gives a point or a segment.
func decodeFuzzRects(data []byte) (as, bs []geom.Rect) {
	coord := func(b byte) float64 {
		if int8(b) == math.MinInt8 {
			return math.Copysign(0, -1)
		}
		return float64(int8(b)) / 8
	}
	for n := 0; len(data) >= 5 && n < 256; n++ {
		x, y := coord(data[0]), coord(data[1])
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + float64(data[2]%16)/8, MaxY: y + float64(data[3]%16)/8}
		if data[4]%2 == 0 {
			as = append(as, r)
		} else {
			bs = append(bs, r)
		}
		data = data[5:]
	}
	return as, bs
}

// FuzzSweepJoin holds the sweep to brute force: Join returns exactly the
// intersecting pairs, each once, and JoinFunc emits them in non-decreasing
// order of the pair's earlier MinX. The order is not monotone in the later
// MinX: a pivot reaches a far candidate before the next pivot reaches a
// near one (the fourth seed).
func FuzzSweepJoin(f *testing.F) {
	const negZero = 0x80
	// -0 beside +0 as MinX, on both sides, with segments and points.
	f.Add([]byte{
		negZero, 0, 0, 4, 0,
		0, 0, 0, 4, 1,
		0, 2, 3, 0, 0,
		negZero, 2, 0, 0, 1,
	})
	// Every MinX equal, and one side empty.
	f.Add([]byte{
		8, 0, 1, 1, 0,
		8, 8, 2, 0, 0,
		8, 16, 0, 0, 0,
	})
	f.Add([]byte{
		8, 0, 1, 1, 0,
		8, 1, 2, 3, 1,
		8, 2, 0, 0, 0,
		8, 3, 5, 1, 1,
	})
	// A wide pivot, a far candidate, then a near pair.
	f.Add([]byte{
		0, 0, 15, 8, 0,
		12, 0, 1, 8, 1,
		4, 0, 8, 8, 1,
		6, 0, 1, 8, 2,
	})
	// Negative coordinates, degenerate rectangles among them. The pair
	// (0, 0) is found only if -1 sorts before -1/4 on side a.
	f.Add([]byte{
		0xf8, 0, 4, 1, 0,
		0xfe, 0, 1, 1, 0,
		0xfa, 0, 1, 1, 1,
	})
	f.Add([]byte{
		0xf0, 0xf0, 15, 15, 0,
		0xf4, 0xf8, 0, 0, 1,
		0xf8, 0xf4, 0, 9, 1,
		0xfc, 0x81, 7, 0, 1,
		0x81, 0x81, 15, 15, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		as, bs := decodeFuzzRects(data)
		var got []Pair
		last := math.Inf(-1)
		JoinFunc(as, bs, func(a, b int) {
			if m := min(as[a].MinX, bs[b].MinX); m < last {
				t.Fatalf("pair (%d, %d) at earlier MinX %g emitted after one at %g", a, b, m, last)
			} else {
				last = m
			}
			got = append(got, Pair{A: a, B: b})
		})
		if want := brute(as, bs); !pairsEqual(got, want) {
			t.Fatalf("sweep returned %d pairs, brute force %d (as=%v bs=%v)", len(got), len(want), as, bs)
		}
		if !pairsEqual(Join(as, bs), got) {
			t.Fatal("Join differs from JoinFunc")
		}
	})
}
