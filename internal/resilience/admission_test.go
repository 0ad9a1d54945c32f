package resilience

import (
	"sync"
	"testing"
	"time"
)

func TestAdmissionDefaults(t *testing.T) {
	p := AdmissionPolicy{}.WithDefaults()
	if p.MaxInflight <= 0 || p.MinInflight != 1 || p.Target != 250*time.Millisecond ||
		p.DecreaseFactor != 0.5 || p.DecreaseEvery != p.Target {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestTryAcquireEnforcesLimit(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInflight: 2, Target: time.Second})
	if !c.TryAcquire() || !c.TryAcquire() {
		t.Fatal("first two acquires must pass")
	}
	if c.TryAcquire() {
		t.Fatal("third acquire must shed at limit 2")
	}
	if c.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", c.Shed())
	}
	c.ReleaseDone(time.Millisecond, 0, false)
	if !c.TryAcquire() {
		t.Fatal("released slot must be reusable")
	}
	if c.Inflight() != 2 {
		t.Fatalf("Inflight = %d, want 2", c.Inflight())
	}
}

func TestAIMDDecreaseAndRecovery(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInflight: 8, Target: 10 * time.Millisecond, DecreaseEvery: time.Nanosecond})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.now

	// A slow completion halves the limit.
	c.TryAcquire()
	clk.advance(time.Second)
	c.ReleaseDone(time.Second, 0, false)
	if got := c.Limit(); got != 4 {
		t.Fatalf("limit after slow query = %v, want 4", got)
	}
	// Fast completions climb back additively (+1/limit each).
	for i := 0; i < 100; i++ {
		c.TryAcquire()
		c.ReleaseDone(time.Millisecond, 0, false)
	}
	if got := c.Limit(); got != 8 {
		t.Fatalf("limit after recovery = %v, want cap 8", got)
	}
}

func TestAIMDDecreaseSpacing(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInflight: 16, Target: time.Millisecond, DecreaseEvery: time.Hour})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.now
	for i := 0; i < 5; i++ {
		c.TryAcquire()
		c.ReleaseDone(time.Second, 0, false)
	}
	// Only the first slow query inside the spacing window may cut.
	if got := c.Limit(); got != 8 {
		t.Fatalf("limit = %v, want single cut to 8", got)
	}
	clk.advance(2 * time.Hour)
	c.TryAcquire()
	c.ReleaseDone(time.Second, 0, false)
	if got := c.Limit(); got != 4 {
		t.Fatalf("limit = %v, want second cut to 4 after window", got)
	}
}

func TestLimitNeverBelowFloor(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInflight: 4, MinInflight: 1, Target: time.Millisecond, DecreaseEvery: time.Nanosecond})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.now
	for i := 0; i < 20; i++ {
		c.TryAcquire()
		clk.advance(time.Second)
		c.ReleaseDone(time.Second, 0, false)
	}
	if got := c.Limit(); got < 1 {
		t.Fatalf("limit = %v, fell below floor", got)
	}
	if !c.TryAcquire() {
		t.Fatal("floor of 1 must still admit one query")
	}
}

func TestDegradedCounter(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInflight: 4, Target: time.Hour})
	c.TryAcquire()
	c.ReleaseDone(time.Millisecond, 10, true)
	if c.Degraded() != 1 || c.Admitted() != 1 {
		t.Fatalf("degraded=%d admitted=%d, want 1/1", c.Degraded(), c.Admitted())
	}
}

func TestControllerConcurrent(t *testing.T) {
	const slots, goroutines, rounds = 8, 16, 50
	c := NewController(AdmissionPolicy{MaxInflight: slots, Target: time.Hour})
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		// A winner holds its slot until every goroutine of the round has
		// asked for one, so each round 16 ask for 8 slots and 8 are refused
		// at the limit.
		var attempted sync.WaitGroup
		attempted.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ok := c.TryAcquire()
				attempted.Done()
				c.Limit()
				if ok {
					attempted.Wait()
					c.ReleaseDone(time.Microsecond, 5, false)
				}
			}()
		}
		wg.Wait()
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", c.Inflight())
	}
	if c.Admitted() == 0 || c.Shed() == 0 {
		t.Fatalf("admitted=%d shed=%d, want both nonzero", c.Admitted(), c.Shed())
	}
	if want := uint64((goroutines - slots) * rounds); c.Admitted() != slots*rounds || c.Shed() != want {
		t.Fatalf("admitted=%d shed=%d, want %d/%d", c.Admitted(), c.Shed(), slots*rounds, want)
	}
}
