package histogram

import (
	"fmt"
	"testing"

	"spatialsel/internal/datagen"
)

func TestBuildGHParallelMatchesSerial(t *testing.T) {
	d := datagen.Cluster("d", 20000, 0.4, 0.6, 0.15, 0.01, 130)
	level := 6
	serialRaw, err := MustGH(level).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	serial := serialRaw.(*GHSummary)
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		parRaw, err := BuildGHParallel(d, level, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		par := parRaw.(*GHSummary)
		if par.ItemCount() != serial.ItemCount() || par.Level() != serial.Level() {
			t.Fatalf("workers=%d: identity mismatch", workers)
		}
		for i := range serial.cells {
			if s, p := serial.cells[i], par.cells[i]; s != p {
				t.Fatalf("workers=%d: cell %d differs: %+v vs %+v", workers, i, s, p)
			}
		}
	}
}

func TestBuildGHParallelValidation(t *testing.T) {
	d := datagen.Uniform("d", 100, 0.01, 131)
	if _, err := BuildGHParallel(d, -1, 4); err == nil {
		t.Fatal("bad level accepted")
	}
	// More workers than items degrades gracefully.
	s, err := BuildGHParallel(datagen.Uniform("tiny", 100, 0.01, 132), 3, 1000)
	if err != nil || s.ItemCount() != 100 {
		t.Fatalf("tiny parallel build = %v, %v", s, err)
	}
}

// BenchmarkGHBuildParallel times the level-7 build at 1, 2 and 4 workers on
// 25 k, 100 k and 200 k uniform items: where the serial and the sharded lanes
// cross is what ghShardMinItems is set from.
func BenchmarkGHBuildParallel(b *testing.B) {
	for _, n := range []int{25_000, 100_000, 200_000} {
		d := datagen.Uniform("d", n, 0.005, 135)
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("n=%d/%s", n, map[int]string{1: "serial", 2: "x2", 4: "x4"}[workers])
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := BuildGHParallel(d, 7, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
