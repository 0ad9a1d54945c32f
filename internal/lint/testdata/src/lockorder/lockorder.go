// Package lockorder is lint-test corpus: seeded violations and clean cases
// for the lockorder analyzer. The Registry/Watchdog pair reproduces the
// Registry.Snapshot deadlock shape: one side samples callbacks under its
// lock while the other side acquires the same pair in the opposite order.
package lockorder

import "sync"

// Registry guards a set of sampling callbacks.
type Registry struct {
	mu     sync.Mutex
	sample func() float64
	last   float64
}

// Watchdog watches a registry under its own lock.
type Watchdog struct {
	mu  sync.Mutex
	reg *Registry
	ok  bool
}

// Snapshot acquires Watchdog.mu while holding Registry.mu. Together with
// Observe below this is the AB-BA cycle. (violation: cycle witness)
func (r *Registry) Snapshot(w *Watchdog) bool {
	r.mu.Lock()
	w.mu.Lock() // want lockorder (cycle, first witness)
	ok := w.ok
	w.mu.Unlock()
	r.mu.Unlock()
	return ok
}

// Observe acquires Registry.mu while holding Watchdog.mu — the opposing
// order. (violation: the other half of the cycle)
func (w *Watchdog) Observe() {
	w.mu.Lock()
	w.reg.mu.Lock() // the opposing witness named in the cycle diagnostic
	w.reg.last = 0
	w.reg.mu.Unlock()
	w.mu.Unlock()
}

// SampleLocked invokes a stored callback inside the critical section — the
// callee is unknown and may lock anything. (violation: dynamic call)
func (r *Registry) SampleLocked() float64 {
	r.mu.Lock()
	v := r.sample() // want lockorder (function value under held lock)
	r.last = v
	r.mu.Unlock()
	return v
}

// Merge locks two instances of the same class with no documented tie-break.
// (violation: reentrant/instance-order acquisition)
func Merge(a, b *Registry) {
	a.mu.Lock()
	b.mu.Lock() // want lockorder (same class already held)
	a.last += b.last
	b.mu.Unlock()
	a.mu.Unlock()
}

// SampleOutside snapshots the callback under the lock and invokes it after
// releasing — the PR 6 fix shape. (clean)
func (r *Registry) SampleOutside() float64 {
	r.mu.Lock()
	fn := r.sample
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// SuppressedCallback documents a callback that is contractually lock-free.
// (clean: suppressed)
func (r *Registry) SuppressedCallback() {
	r.mu.Lock()
	//lint:ignore lockorder corpus: callback documented lock-free and set once before start
	r.sample()
	r.mu.Unlock()
}

// notifyLocked runs with Registry.mu held by its caller, as its name says,
// so the callback it invokes is under the lock although the Lock call is in
// another function. (violation: dynamic call in a ...Locked helper)
func (r *Registry) notifyLocked() {
	r.sample() // want lockorder (function value under the caller's lock)
}

// Notify is notifyLocked's caller. (clean)
func (r *Registry) Notify() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notifyLocked()
}
