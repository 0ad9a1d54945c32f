package histogram

import (
	"runtime"
	"sync"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
)

// BuildGHParallel builds a GH summary using several goroutines. Because
// every GH parameter is a sum of independent per-item contributions, the
// items can be sharded across workers that accumulate into private cell
// tables, merged by addition at the end — the result is numerically
// identical to the serial build up to floating-point addition order.
//
// workers ≤ 0 selects GOMAXPROCS. For small datasets or coarse grids the
// serial build is faster; the crossover is around 10⁵ items at level ≥ 6
// (see BenchmarkGHBuildParallel).
func BuildGHParallel(d *dataset.Dataset, level, workers int) (core.Summary, error) {
	grid, err := NewGrid(level)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nd := d.Normalize()
	items := nd.Items
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		return MustGH(level).Build(d)
	}

	shards := make([][]ghCell, workers)
	var wg sync.WaitGroup
	chunk := (len(items) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			cells := make([]ghCell, grid.Cells())
			accumulateGH(grid, items[lo:hi], cells)
			shards[w] = cells
		}(w, lo, hi)
	}
	wg.Wait()

	merged := make([]ghCell, grid.Cells())
	for _, cells := range shards {
		if cells == nil {
			continue
		}
		for i := range merged {
			merged[i].C += cells[i].C
			merged[i].O += cells[i].O
			merged[i].H += cells[i].H
			merged[i].V += cells[i].V
		}
	}
	return &GHSummary{name: d.Name, n: d.Len(), level: level, cells: merged}, nil
}
