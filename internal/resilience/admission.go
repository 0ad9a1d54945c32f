package resilience

import (
	"runtime"
	"sync"
	"time"
)

// AdmissionPolicy configures a Controller. Zero values take the defaults
// from WithDefaults.
type AdmissionPolicy struct {
	// MaxInflight caps the adaptive concurrency limit (and is its starting
	// value). Default 4×GOMAXPROCS.
	MaxInflight int
	// MinInflight floors the limit so the server never wedges shut.
	// Default 1.
	MinInflight int
	// Target is the latency the limiter steers admitted queries toward —
	// the server wires -slow-query here. Queries observed to exceed it push
	// the limit down. Default 250ms.
	Target time.Duration
	// DecreaseFactor is the multiplicative cut applied to the limit when
	// an admitted query finishes over Target. Default 0.5.
	DecreaseFactor float64
	// DecreaseEvery spaces multiplicative cuts so one slow burst doesn't
	// collapse the limit to the floor before the cut can take effect.
	// Default = Target.
	DecreaseEvery time.Duration
}

// WithDefaults fills unset fields.
func (p AdmissionPolicy) WithDefaults() AdmissionPolicy {
	if p.MaxInflight <= 0 {
		p.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if p.MinInflight <= 0 {
		p.MinInflight = 1
	}
	if p.MaxInflight < p.MinInflight {
		p.MaxInflight = p.MinInflight
	}
	if p.Target <= 0 {
		p.Target = 250 * time.Millisecond
	}
	if p.DecreaseFactor <= 0 || p.DecreaseFactor >= 1 {
		p.DecreaseFactor = 0.5
	}
	if p.DecreaseEvery <= 0 {
		p.DecreaseEvery = p.Target
	}
	return p
}

// Controller is the server's admission gate: an AIMD adaptive concurrency
// limit (additive increase when admitted queries finish under Target,
// multiplicative decrease when they don't — the TCP congestion window
// applied to query slots). A query that finds every slot taken is refused at
// arrival with 503 + Retry-After instead of queueing behind work the server
// is already too slow to finish. Safe for concurrent use.
type Controller struct {
	policy AdmissionPolicy

	mu           sync.Mutex
	limit        float64 // fractional so +1/limit additive increases accumulate
	inflight     int
	lastDecrease time.Time
	admitted     uint64
	shed         uint64
	degraded     uint64
	now          func() time.Time
}

// NewController builds a Controller with p (defaults applied). The limit
// starts at MaxInflight and adapts from there.
func NewController(p AdmissionPolicy) *Controller {
	p = p.WithDefaults()
	return &Controller{policy: p, limit: float64(p.MaxInflight), now: time.Now}
}

// Policy returns the effective (defaulted) policy.
func (c *Controller) Policy() AdmissionPolicy { return c.policy }

// TryAcquire claims an execution slot. A refusal is recorded as a shed;
// the caller should answer 503 with Retry-After. A granted slot must be
// released with exactly one ReleaseDone.
func (c *Controller) TryAcquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight >= c.intLimit() {
		c.shed++
		return false
	}
	c.inflight++
	return true
}

// ReleaseDone returns a slot whose query executed; elapsed vs Target drives
// the AIMD limit. units is ignored and degraded only feeds the Degraded
// counter: both stay for bench/trace.go's gate replay, which passes them,
// until ROADMAP 1 (a) deletes them with it.
func (c *Controller) ReleaseDone(elapsed time.Duration, units float64, degraded bool) {
	now := c.now() // sampled outside the critical section: the clock is an injected callee
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	c.admitted++
	if degraded {
		c.degraded++
	}
	if elapsed > c.policy.Target {
		if now.Sub(c.lastDecrease) >= c.policy.DecreaseEvery {
			c.lastDecrease = now
			c.limit *= c.policy.DecreaseFactor
			if c.limit < float64(c.policy.MinInflight) {
				c.limit = float64(c.policy.MinInflight)
			}
		}
	} else {
		c.limit += 1 / c.limit
		if c.limit > float64(c.policy.MaxInflight) {
			c.limit = float64(c.policy.MaxInflight)
		}
	}
}

// PredictCost returns 0: the controller prices no query. It is kept for
// bench/trace.go, its one caller, until ROADMAP 1 (a) deletes it with that
// replay.
func (c *Controller) PredictCost(units float64) time.Duration { return 0 }

// RetryAfter is the backoff the server advertises on a shed: one Target
// period, by which time the queue has turned over if the limiter is doing
// its job.
func (c *Controller) RetryAfter() time.Duration { return c.policy.Target }

// intLimit floors the fractional limit for comparisons; callers hold c.mu.
func (c *Controller) intLimit() int {
	n := int(c.limit)
	if n < c.policy.MinInflight {
		n = c.policy.MinInflight
	}
	return n
}

// Limit returns the current adaptive concurrency limit.
func (c *Controller) Limit() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Inflight returns the number of slots currently held.
func (c *Controller) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Admitted returns the count of queries that executed to completion.
func (c *Controller) Admitted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitted
}

// Shed returns the count of queries refused at the concurrency limit.
func (c *Controller) Shed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shed
}

// Degraded returns the count of releases that passed degraded. Nothing
// served does, so it stays 0 on a server.
func (c *Controller) Degraded() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}
