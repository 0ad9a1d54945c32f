// Package resilience holds the small, dependency-free building blocks the
// server and ingest path use to stay up under stress: bounded retry with
// exponential backoff and jitter, a circuit breaker for the WAL write path,
// and an adaptive concurrency limit for the query path.
package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy bounds a retry loop over a transient operation. Zero values
// take the defaults from WithDefaults.
type RetryPolicy struct {
	Max  int           // retry attempts after the first try; < 0 disables retries
	Base time.Duration // first backoff
	Cap  time.Duration // backoff ceiling
}

// WithDefaults fills unset fields: 4 retries, 1ms base, 50ms cap.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Max == 0 {
		p.Max = 4
	}
	if p.Max < 0 {
		p.Max = 0
	}
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 50 * time.Millisecond
	}
	return p
}

// Backoff returns the sleep before retry attempt (0-based): Base·2^attempt
// capped at Cap, plus up to 50% jitter drawn from jitter (which may be nil
// for none).
func (p RetryPolicy) Backoff(attempt int, jitter *rand.Rand) time.Duration {
	d := p.Base
	for i := 0; i < attempt && d < p.Cap; i++ {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	if jitter != nil {
		d += time.Duration(jitter.Int63n(int64(d)/2 + 1))
	}
	return d
}

// Retryer runs operations under a RetryPolicy with a private seeded jitter
// source, so retry schedules are reproducible in tests. Safe for concurrent
// use.
type Retryer struct {
	policy RetryPolicy
	mu     sync.Mutex
	rng    *rand.Rand
	sleep  func(time.Duration) // test seam; time.Sleep by default
}

// NewRetryer builds a Retryer with p (defaults applied) and the given
// jitter seed.
func NewRetryer(p RetryPolicy, seed int64) *Retryer {
	return &Retryer{
		policy: p.WithDefaults(),
		rng:    rand.New(rand.NewSource(seed)),
		sleep:  time.Sleep,
	}
}

// Policy returns the effective (defaulted) policy.
func (r *Retryer) Policy() RetryPolicy { return r.policy }

// Do runs op up to 1+Max times, sleeping Backoff between attempts. It
// returns nil on the first success, or the last error. retried is called
// (if non-nil) after each failed attempt that will be retried — the WAL
// uses it to count retries into metrics and to rewind file state before
// the next attempt; a non-nil error from retried aborts the loop
// immediately (the rewind itself failed, so retrying is unsafe).
func (r *Retryer) Do(op func() error, retried func(err error) error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		if attempt >= r.policy.Max {
			return err
		}
		if retried != nil {
			if rerr := retried(err); rerr != nil {
				return rerr
			}
		}
		r.mu.Lock()
		d := r.policy.Backoff(attempt, r.rng)
		r.mu.Unlock()
		r.sleep(d)
	}
}
