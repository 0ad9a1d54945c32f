package ingest

import (
	"context"
	"time"
)

// RepackPolicy decides when a table's write tree has degraded enough to be
// worth rebuilding with a bulk load. Insertion churn through a Guttman tree
// produces overlapping nodes that an STR pack would not have; the policy
// watches both the tree-shape signal (overlap factor) and the raw churn
// volume, and fires on either once a minimum amount of churn has accrued.
type RepackPolicy struct {
	// Interval is the poll period of the background loop. Default 5s.
	Interval time.Duration
	// MaxOverlap triggers a re-pack once the write tree's OverlapFactor
	// reaches it. Default 0.25.
	MaxOverlap float64
	// MaxChurnRatio triggers once mutations-since-last-pack exceed this
	// fraction of the live item count. Default 0.25.
	MaxChurnRatio float64
	// MinChurn is the churn floor below which no re-pack fires, so small or
	// quiet tables don't thrash. Default 64.
	MinChurn int
}

func (p RepackPolicy) withDefaults() RepackPolicy {
	if p.Interval <= 0 {
		p.Interval = 5 * time.Second
	}
	if p.MaxOverlap <= 0 {
		p.MaxOverlap = 0.25
	}
	if p.MaxChurnRatio <= 0 {
		p.MaxChurnRatio = 0.25
	}
	if p.MinChurn <= 0 {
		p.MinChurn = 64
	}
	return p
}

// ShouldRepack applies the policy to one degradation sample.
func (p RepackPolicy) ShouldRepack(d Degradation) bool {
	if d.Churn < p.MinChurn {
		return false
	}
	return d.ChurnRatio >= p.MaxChurnRatio || d.Overlap >= p.MaxOverlap
}

// Run is the background re-packer: every policy interval it samples each
// open table's degradation and re-packs the ones the policy flags. It
// returns when ctx is cancelled. Run one goroutine per manager.
func (m *Manager) Run(ctx context.Context) {
	ticker := time.NewTicker(m.opts.Repack.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.RepackPass(ctx)
		}
	}
}

// RepackPass runs one poll over every open table, re-packing those the
// policy flags. Exposed so tests and operators can force a deterministic
// pass instead of waiting for the ticker.
func (m *Manager) RepackPass(ctx context.Context) {
	for _, name := range m.Names() {
		if ctx.Err() != nil {
			return
		}
		m.mu.Lock()
		t := m.tables[name]
		m.mu.Unlock()
		if t == nil || !m.opts.Repack.ShouldRepack(t.Degradation()) {
			continue
		}
		// A re-pack failure leaves the table on its current (valid) tree and
		// the next pass retries, so the error is not fatal to the loop.
		_, _ = t.Repack()
	}
}
