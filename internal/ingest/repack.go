package ingest

import (
	"context"
	"time"
)

// RepackPolicy decides when a table's overlay has grown enough to be worth
// folding into a new packed base. Readers join the overlay's delta beside the
// base and mask its tombstones on every query, a cost that grows with the
// overlay; a fold costs one pack of the table, whatever the
// overlay holds. The policy fires once the churn since the last fold — which
// bounds the overlay — passes a share of the base.
type RepackPolicy struct {
	// Interval is the poll period of the background loop. Default 5s.
	Interval time.Duration
	// MaxChurnRatio triggers a fold once mutations since the last one reach
	// this fraction of the base's item slots. Default 1/16, fitted on the
	// measured curve (EXPERIMENTS.md "O(batch) publish") against the fold of
	// its day, about 100 ms: there what every join and publish pays for a
	// larger overlay met that fold amortized over the writes between two
	// folds. 1/8 was within noise of it; 1/32 folded too often and 1/4
	// carried too much per publish. Folds at 100 k items now take 48–66 ms
	// (EXPERIMENTS.md "A fold is one critical section"), so the fit is stale;
	// ROADMAP item 19 (c) owns the re-fit.
	MaxChurnRatio float64
	// MinChurn is the churn floor below which no fold fires, so small or
	// quiet tables don't thrash. Default 64.
	MinChurn int
}

func (p RepackPolicy) withDefaults() RepackPolicy {
	if p.Interval <= 0 {
		p.Interval = 5 * time.Second
	}
	if p.MaxChurnRatio <= 0 {
		p.MaxChurnRatio = 1.0 / 16
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
	return d.ChurnRatio >= p.MaxChurnRatio
}

// Run is the background folder: every policy interval it samples each
// open table's degradation and folds the ones the policy flags. It
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

// RepackPass runs one poll over every open table, folding those the policy
// flags and retrying the WAL truncation an earlier fold or a recovery left
// owed. Exposed so tests and operators can force a deterministic pass instead
// of waiting for the ticker.
func (m *Manager) RepackPass(ctx context.Context) {
	for _, name := range m.Names() {
		if ctx.Err() != nil {
			return
		}
		m.mu.Lock()
		t := m.tables[name]
		m.mu.Unlock()
		if t == nil {
			continue
		}
		// Neither failure is fatal to the loop: a failed fold leaves the table
		// on its current (valid) base, a failed truncation leaves the WAL
		// long but complete, and the next pass retries either.
		if m.opts.Repack.ShouldRepack(t.Degradation()) {
			_, _ = t.Repack()
		} else {
			_ = t.retryCheckpoint()
		}
	}
}
