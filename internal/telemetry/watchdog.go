package telemetry

import (
	"sort"
	"sync"

	"spatialsel/internal/obs"
)

// p2 is a streaming quantile estimator implementing the P² algorithm (Jain &
// Chlamtac, CACM 1985): five markers track the min, the q/2, q, and (1+q)/2
// quantiles, and the max, adjusted with a piecewise-parabolic fit as samples
// arrive. Constant memory, one pass, no stored samples — exactly the budget a
// per-table-pair watchdog can afford. Until five samples have arrived the
// estimate is exact (sorted insertion into the marker heights).
type p2 struct {
	q       float64    // target quantile in (0, 1)
	n       int        // samples observed
	heights [5]float64 // marker heights (estimated quantile values)
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	incr    [5]float64 // desired-position increments per sample
}

func newP2(q float64) *p2 {
	s := &p2{q: q}
	s.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return s
}

// observe feeds one sample.
func (s *p2) observe(v float64) {
	if s.n < 5 {
		// Initialization: collect the first five samples sorted.
		i := s.n
		for i > 0 && s.heights[i-1] > v {
			s.heights[i] = s.heights[i-1]
			i--
		}
		s.heights[i] = v
		s.n++
		if s.n == 5 {
			for j := 0; j < 5; j++ {
				s.pos[j] = float64(j + 1)
				s.want[j] = 1 + 4*s.incr[j]
			}
		}
		return
	}
	s.n++

	// Find the cell k containing v, clamping the extreme markers.
	var k int
	switch {
	case v < s.heights[0]:
		s.heights[0] = v
		k = 0
	case v >= s.heights[4]:
		s.heights[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < s.heights[k+1] {
				break
			}
		}
	}
	for j := k + 1; j < 5; j++ {
		s.pos[j]++
	}
	for j := 0; j < 5; j++ {
		s.want[j] += s.incr[j]
	}

	// Adjust the interior markers toward their desired positions.
	for j := 1; j <= 3; j++ {
		d := s.want[j] - s.pos[j]
		if (d >= 1 && s.pos[j+1]-s.pos[j] > 1) || (d <= -1 && s.pos[j-1]-s.pos[j] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := s.parabolic(j, sign)
			if s.heights[j-1] < h && h < s.heights[j+1] {
				s.heights[j] = h
			} else {
				s.heights[j] = s.linear(j, sign)
			}
			s.pos[j] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker j one position in direction d (±1).
func (s *p2) parabolic(j int, d float64) float64 {
	return s.heights[j] + d/(s.pos[j+1]-s.pos[j-1])*
		((s.pos[j]-s.pos[j-1]+d)*(s.heights[j+1]-s.heights[j])/(s.pos[j+1]-s.pos[j])+
			(s.pos[j+1]-s.pos[j]-d)*(s.heights[j]-s.heights[j-1])/(s.pos[j]-s.pos[j-1]))
}

// linear is the fallback height prediction when the parabola overshoots a
// neighbor.
func (s *p2) linear(j int, d float64) float64 {
	k := j + int(d)
	return s.heights[j] + d*(s.heights[k]-s.heights[j])/(s.pos[k]-s.pos[j])
}

// quantile returns the current estimate (exact below five samples).
func (s *p2) quantile() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		h := make([]float64, s.n)
		copy(h, s.heights[:s.n])
		sort.Float64s(h)
		i := int(s.q * float64(s.n-1))
		return h[i]
	}
	return s.heights[2]
}

// ---- drift watchdog ------------------------------------------------------

// Pair identifies a joined table pair, canonically ordered so (a,b) and
// (b,a) accumulate into the same sketch.
type Pair struct {
	Left, Right string
}

// PairOf returns the canonical Pair for two table names.
func PairOf(a, b string) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{Left: a, Right: b}
}

// String renders "left⋈right" for logs and labels.
func (p Pair) String() string { return p.Left + "⋈" + p.Right }

// DriftConfig tunes the estimator-drift watchdog. Zero values take defaults.
type DriftConfig struct {
	// Threshold is the windowed p90 relative error above which a pair is
	// flagged as drifting (default 0.25 — well outside the paper's
	// few-percent headline, so a flag means the estimator is genuinely off
	// for that pair, not noisy).
	Threshold float64
	// MinSamples is the floor below which a window is not judged (default
	// 20): a handful of joins is not evidence of drift.
	MinSamples int
	// WindowTicks is how many telemetry ticks one evaluation window spans
	// (default 30 — five minutes at the default 10s interval). At each window
	// boundary the sketches reset, so recovered estimators shed old errors.
	WindowTicks int
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.25
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = 30
	}
	return c
}

// Drift is one pair's evaluation result the watchdog reports when the pair
// newly crosses the threshold.
type Drift struct {
	Pair Pair
	P50  float64
	P90  float64
}

// pairState is one table pair's windowed sketches plus the last evaluated
// quantiles (held so the exported gauges stay meaningful between windows).
type pairState struct {
	p50, p90 *p2
	samples  int
	lastP50  float64
	lastP90  float64
	flagged  bool
}

// Watchdog monitors estimator accuracy per table pair: every executed join
// feeds its relative error in, every telemetry tick evaluates the windowed
// p50/p90 sketches against the drift threshold, and newly crossed pairs are
// reported for logging. All methods are safe for
// concurrent use; Observe is on the query hot path and costs one mutex plus
// constant-time sketch updates.
type Watchdog struct {
	cfg DriftConfig
	reg *obs.Registry

	mu    sync.Mutex
	pairs map[Pair]*pairState
	ticks int
}

// NewWatchdog builds a watchdog. The registry receives the per-pair quantile
// gauges and the flagged-pair count as they appear; nil skips them.
func NewWatchdog(cfg DriftConfig, reg *obs.Registry) *Watchdog {
	w := &Watchdog{
		cfg:   cfg.withDefaults(),
		reg:   reg,
		pairs: make(map[Pair]*pairState),
	}
	if reg != nil {
		reg.GaugeFunc("sdbd_estimate_drift_pairs",
			"Table pairs currently flagged as drifting by the estimator watchdog.",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				n := 0
				for _, st := range w.pairs {
					if st.flagged {
						n++
					}
				}
				return float64(n)
			})
	}
	return w
}

// Config returns the effective (defaulted) configuration.
func (w *Watchdog) Config() DriftConfig { return w.cfg }

// Observe feeds one executed join's relative error into the pair's current
// window.
func (w *Watchdog) Observe(p Pair, relError float64) {
	if relError < 0 {
		relError = -relError
	}
	w.mu.Lock()
	st, ok := w.pairs[p]
	if !ok {
		st = &pairState{p50: newP2(0.50), p90: newP2(0.90)}
		w.pairs[p] = st
	}
	st.p50.observe(relError)
	st.p90.observe(relError)
	st.samples++
	w.mu.Unlock()
	// Register outside the watchdog mutex: registration takes the registry
	// lock, and a concurrent snapshot samples our gauge closures (which take
	// the watchdog mutex) — overlapping the two would invert the lock order.
	// Only the goroutine that inserted the pair registers, so names stay
	// unique.
	if !ok && w.reg != nil {
		w.registerPair(p, st)
	}
}

// registerPair installs the pair's exported quantile gauges. The closures
// read under the watchdog mutex; snapshot and render never hold a registry
// lock while sampling, so there is no lock-order cycle.
func (w *Watchdog) registerPair(p Pair, st *pairState) {
	labels := []obs.Label{obs.L("left", p.Left), obs.L("right", p.Right)}
	w.reg.GaugeFunc("sdbd_estimate_rel_error_p50",
		"Windowed p50 of |est-actual|/actual per joined table pair.",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return st.lastP50
		}, labels...)
	w.reg.GaugeFunc("sdbd_estimate_rel_error_p90",
		"Windowed p90 of |est-actual|/actual per joined table pair.",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return st.lastP90
		}, labels...)
}

// Evaluate runs one tick's drift pass: pairs with enough samples get their
// exported quantiles refreshed and are checked against the threshold; pairs
// whose p90 newly crossed it are returned (sorted, deterministic) so the
// caller can log them. Every WindowTicks ticks the sketches reset; a
// flagged pair whose fresh window comes back healthy is unflagged then.
func (w *Watchdog) Evaluate() []Drift {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ticks++
	rotate := w.ticks%w.cfg.WindowTicks == 0
	var crossed []Drift
	for p, st := range w.pairs {
		if st.samples >= w.cfg.MinSamples {
			st.lastP50 = st.p50.quantile()
			st.lastP90 = st.p90.quantile()
			if st.lastP90 >= w.cfg.Threshold && !st.flagged {
				st.flagged = true
				crossed = append(crossed, Drift{Pair: p, P50: st.lastP50, P90: st.lastP90})
			}
			if rotate && st.lastP90 < w.cfg.Threshold {
				st.flagged = false
			}
		}
		if rotate {
			st.p50, st.p90 = newP2(0.50), newP2(0.90)
			st.samples = 0
		}
	}
	sort.Slice(crossed, func(i, j int) bool {
		if crossed[i].Pair.Left != crossed[j].Pair.Left {
			return crossed[i].Pair.Left < crossed[j].Pair.Left
		}
		return crossed[i].Pair.Right < crossed[j].Pair.Right
	})
	return crossed
}

// Flagged returns the currently flagged pairs, sorted.
func (w *Watchdog) Flagged() []Pair {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []Pair
	for p, st := range w.pairs {
		if st.flagged {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out
}
