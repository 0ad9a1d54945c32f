package histogram

import (
	"bytes"
	"math"
	"testing"

	"spatialsel/internal/datagen"
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
