package histogram

import (
	"runtime"
	"sync"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// ghShardMinItems is the input size from which GH.Build and GHBuilderFrom
// shard the accumulation across GOMAXPROCS workers. Each worker pays for a
// whole cell table of its own and its merge, so the crossover grows with the
// level. Measured with BenchmarkGHBuildParallel and ad-hoc lanes on the
// integer build (uniform items of side ≤ 0.005, two workers against one,
// 2-core VM): at level 7 the two break even near 6 000 items and two take
// 0.62× the serial time at 25 000 and 0.68× at 100 000; at level 9 they
// still break even at 25 000 and take 0.63× at 100 000. 100 000 pays at
// every level the paper evaluates.
const ghShardMinItems = 100_000

// shardWorkers is the worker count GH.Build and GHBuilderFrom use for n items.
func shardWorkers(n int) int {
	if n < ghShardMinItems {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// BuildGHParallel builds a GH summary with its items sharded across workers
// goroutines, each accumulating into a private cell table; the tables are
// merged by addition. The sums are exact (ghSums), so the result is
// bit-identical to GH.Build's at every worker count. workers ≤ 0 selects
// GOMAXPROCS.
func BuildGHParallel(d *dataset.Dataset, level, workers int) (core.Summary, error) {
	grid, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return buildGH(d, grid, workers), nil
}

// sumGH returns the exact cell sums of items (normalized to the unit square),
// accumulated by up to workers goroutines over contiguous shards.
func sumGH(grid Grid, items []geom.Rect, workers int) []ghSums {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		cells := make([]ghSums, grid.Cells())
		for _, r := range items {
			applyGHItem(grid, r, cells, +1)
		}
		return cells
	}
	shards := make([][]ghSums, workers)
	var wg sync.WaitGroup
	chunk := (len(items) + workers - 1) / workers
	for w := range shards {
		lo, hi := min(w*chunk, len(items)), min((w+1)*chunk, len(items))
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[w] = sumGH(grid, items[lo:hi], 1)
		}()
	}
	wg.Wait()
	merged := shards[0]
	for _, cells := range shards[1:] {
		for i := range merged {
			merged[i].C += cells[i].C
			merged[i].O += cells[i].O
			merged[i].H += cells[i].H
			merged[i].V += cells[i].V
		}
	}
	return merged
}
