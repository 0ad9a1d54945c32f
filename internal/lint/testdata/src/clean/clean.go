// Package clean is lint-test corpus: idiomatic code every analyzer must pass
// without diagnostics or suppressions.
package clean

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Row is a minimal record.
type Row struct {
	Key  string
	Hits int64
}

// Counter is a typed atomic: a plain access does not compile.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load reads the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Scan polls ctx once per batch like the engine's join kernels.
func Scan(ctx context.Context, rows []Row, c *Counter) error {
	for i := range rows {
		if i%32 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c.Inc()
	}
	return nil
}

// Render writes map contents in sorted key order.
func Render(w io.Writer, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}

// NearlyEqual compares floats with a tolerance.
func NearlyEqual(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
