package histogram

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// FuzzReadSummary hammers the SHF1 decoder with arbitrary bytes: it must
// either return a usable summary or an error — never panic.
func FuzzReadSummary(f *testing.F) {
	d := datagen.Uniform("seed", 50, 0.02, 190)
	for _, build := range []func() ([]byte, error){
		func() ([]byte, error) {
			s, err := MustGH(2).Build(d)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = WriteSummary(&buf, s)
			return buf.Bytes(), err
		},
		func() ([]byte, error) {
			s, err := MustPH(2).Build(d)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = WriteSummary(&buf, s)
			return buf.Bytes(), err
		},
		func() ([]byte, error) {
			s, err := MustEuler(2).Build(d)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = WriteSummary(&buf, s)
			return buf.Bytes(), err
		},
	} {
		data, err := build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		mutated := append([]byte{}, data...)
		mutated[4] = 0xFF // kind byte
		f.Add(mutated)
	}
	f.Add([]byte{})
	f.Add([]byte("SHF1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSummary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded summaries must survive re-encoding.
		var out bytes.Buffer
		if err := WriteSummary(&out, s); err != nil {
			t.Fatalf("re-encode of decoded summary failed: %v", err)
		}
		if _, err := ReadSummary(&out); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzGHEstimateRange holds GHSummary.EstimateRange to the one-cell-at-a-time
// reference, bit for bit, for any four window coordinates — NaN, ±Inf,
// negative, beyond 1, inverted — at any level in 0–9, on a summary from Build
// and on one from a GHBuilder after adds and removes.
func FuzzGHEstimateRange(f *testing.F) {
	f.Add(0.25, 0.25, 0.5, 0.5, uint8(2))      // grid lines
	f.Add(0.5, 0.5, 0.5, 0.5, uint8(7))        // a point on a cell corner
	f.Add(0.1, 0.3, 0.8, 0.3, uint8(5))        // a horizontal segment
	f.Add(0.0, 0.0, 1.0, 1.0, uint8(9))        // the full square
	f.Add(-0.5, 0.9, 1.5, 2.0, uint8(3))       // partly outside
	f.Add(math.NaN(), 0.0, 1.0, 1.0, uint8(1)) // not a window
	d := datagen.Cluster("d", 400, 0.5, 0.5, 0.2, 0.05, 94)
	items := d.Normalize().Items
	var summaries [10][2]*GHSummary
	for level := range summaries {
		s, err := MustGH(level).Build(d)
		if err != nil {
			f.Fatal(err)
		}
		b, err := NewGHBuilder(d.Name, level)
		if err != nil {
			f.Fatal(err)
		}
		for k, r := range items {
			if err := b.Add(r); err != nil {
				f.Fatal(err)
			}
			if k%4 == 3 {
				if err := b.Remove(items[k-1]); err != nil {
					f.Fatal(err)
				}
			}
		}
		summaries[level] = [2]*GHSummary{s.(*GHSummary), b.Summary()}
	}
	f.Fuzz(func(t *testing.T, minX, minY, maxX, maxY float64, level uint8) {
		q := geom.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
		for _, s := range summaries[level%10] {
			if got, want := s.EstimateRange(q), estimateRangeReference(s, q); !sameFloat(got, want) {
				t.Fatalf("level %d window %+v: EstimateRange %v (%#x), reference %v (%#x)",
					s.level, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// historyItems draws n items of random kinds (historyItem).
func historyItems(rng *rand.Rand, n int) []geom.Rect {
	items := make([]geom.Rect, n)
	for i := range items {
		items[i] = historyItem(rng, byte(rng.Intn(4)))
	}
	return items
}

// historyItem draws one item of the kind k selects: a point, a sub-cell box,
// a box over many cells, or a box with a side on the unit square's edge.
func historyItem(rng *rand.Rand, k byte) geom.Rect {
	x, y := rng.Float64(), rng.Float64()
	switch k % 4 {
	case 0:
		return geom.NewRect(x, y, x, y)
	case 1:
		return geom.NewRect(x, y, math.Min(x+rng.Float64()*0.01, 1), math.Min(y+rng.Float64()*0.01, 1))
	case 2:
		return geom.NewRect(x, y, math.Min(x+rng.Float64()*0.6, 1), math.Min(y+rng.Float64()*0.6, 1))
	default:
		edge := [2]float64{0, 1}
		r := geom.NewRect(x, y, math.Min(x+rng.Float64()*0.1, 1), math.Min(y+rng.Float64()*0.1, 1))
		switch rng.Intn(4) {
		case 0:
			r.MinX = 0
		case 1:
			r.MaxX = 1
		case 2:
			r.MinY, r.MaxY = edge[rng.Intn(2)], 1
		default:
			r = geom.NewRect(edge[rng.Intn(2)], edge[rng.Intn(2)], 1, 1)
		}
		return r
	}
}

// FuzzGHHistory runs an insert/delete history on a GHBuilder — ops drive it,
// seed draws the items — and holds the result, cell for cell with ==, to
// GH.Build of the surviving multiset in shuffled order and to BuildGHParallel
// at 1–4 workers. A Remove of a never-added item that would drive any cell sum
// below zero must be refused and leave every cell as it was.
func FuzzGHHistory(f *testing.F) {
	f.Add(uint8(7), int64(1), []byte{0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 2, 14, 15, 3})
	f.Add(uint8(3), int64(2), []byte{8, 12, 4, 0, 2, 2, 3, 3, 1, 5, 9, 13, 6, 10})
	f.Add(uint8(0), int64(3), []byte{3, 7, 11, 15, 1, 2, 2})
	f.Fuzz(func(t *testing.T, level uint8, seed int64, ops []byte) {
		level %= 8
		rng := rand.New(rand.NewSource(seed))
		b, err := NewGHBuilder("h", int(level))
		if err != nil {
			t.Fatal(err)
		}
		var live []geom.Rect
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				r := historyItem(rng, op>>2)
				if err := b.Add(r); err != nil {
					t.Fatalf("Add(%v): %v", r, err)
				}
				live = append(live, r)
			case 2:
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				if err := b.Remove(live[k]); err != nil {
					t.Fatalf("Remove(%v) of an added item: %v", live[k], err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case 3:
				r := historyItem(rng, op>>2)
				after := slices.Clone(b.cells)
				applyGHItem(b.grid, r, after, -1)
				if !slices.ContainsFunc(after, func(c ghSums) bool { return c.C < 0 || c.O < 0 || c.H < 0 || c.V < 0 }) {
					continue // the sums cannot tell r from the items they hold
				}
				before := slices.Clone(b.cells)
				if err := b.Remove(r); err == nil {
					t.Fatalf("Remove(%v) of a never-added item accepted", r)
				}
				if !slices.Equal(b.cells, before) || b.Len() != len(live) {
					t.Fatalf("refused Remove(%v) changed the builder", r)
				}
			}
		}
		got := b.Summary()
		shuffled := slices.Clone(live)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		d := dataset.New("h", geom.UnitSquare, shuffled)
		built, err := MustGH(int(level)).Build(d)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]*GHSummary{"Build": built.(*GHSummary)}
		for workers := 1; workers <= 4; workers++ {
			par, err := BuildGHParallel(d, int(level), workers)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("BuildGHParallel(%d)", workers)] = par.(*GHSummary)
		}
		for name, w := range want {
			if got.ItemCount() != w.ItemCount() {
				t.Fatalf("builder holds %d items, %s %d", got.ItemCount(), name, w.ItemCount())
			}
			for i, c := range got.cells {
				if c != w.cells[i] {
					t.Fatalf("cell %d: builder %+v, %s %+v", i, c, name, w.cells[i])
				}
			}
		}
	})
}
