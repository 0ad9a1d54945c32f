// Package sample implements the paper's three sampling techniques for
// spatial-join selectivity estimation (§2):
//
//   - Regular Sampling (RS): every k-th item, k = ⌈N/n⌉.
//   - Random Sampling With Replacement (RSWR): n uniform draws.
//   - Sorted Sampling (SS): RS over the dataset sorted by the Hilbert values
//     of its items.
//
// Estimation joins the two samples with the plane sweep (sweep.Count) and
// scales the observed count by the inverse sampling fractions: with samples
// of a% and b%, the estimated join size is R/(a%·b%). The paper (§2) joins
// samples with R-trees, built per sample, because on disk the sweep lost; in
// memory the sweep needs no index, counts the same pairs and wins at every
// fraction (EXPERIMENTS.md "Packed from items"), so a sample is only a draw.
// The sweep orders each sample with a radix sort on MinX, a few linear passes
// (EXPERIMENTS.md "The sweep sorts by radix"). This is a served path:
// /v1/estimate's rs, rswr and ss methods run it.
package sample

import (
	"fmt"
	"math"
	"math/rand"

	"spatialsel/internal/core"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/obs"
	"spatialsel/internal/sweep"
)

// mSampleDraws counts the items the sampling estimators draw.
var mSampleDraws = obs.Default.Counter("sample_draws_total",
	"Items drawn into samples across builds.")

// Method selects how sample items are picked.
type Method int

const (
	// RS is regular (systematic) sampling.
	RS Method = iota
	// RSWR is random sampling with replacement.
	RSWR
	// SS is sorted (Hilbert-ordered systematic) sampling.
	SS
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case RS:
		return "RS"
	case RSWR:
		return "RSWR"
	case SS:
		return "SS"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Technique is a sampling-based estimator implementing core.Technique.
type Technique struct {
	method   Method
	fraction float64
	seed     int64
}

// Option configures a Technique.
type Option func(*Technique)

// WithSeed sets the PRNG seed used by RSWR (default 1). RS and SS are
// deterministic regardless.
func WithSeed(seed int64) Option {
	return func(t *Technique) { t.seed = seed }
}

// New returns a sampling technique drawing the given fraction (0, 1] of each
// dataset with the given method.
func New(method Method, fraction float64, opts ...Option) (*Technique, error) {
	if method != RS && method != RSWR && method != SS {
		return nil, fmt.Errorf("sample: unknown method %d", int(method))
	}
	if !(fraction > 0 && fraction <= 1) {
		return nil, fmt.Errorf("sample: fraction %g outside (0,1]", fraction)
	}
	t := &Technique{method: method, fraction: fraction, seed: 1}
	for _, o := range opts {
		o(t)
	}
	return t, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(method Method, fraction float64, opts ...Option) *Technique {
	t, err := New(method, fraction, opts...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements core.Technique.
func (t *Technique) Name() string {
	return fmt.Sprintf("%s(%g%%)", t.method, t.fraction*100)
}

// Fraction returns the sampling fraction.
func (t *Technique) Fraction() float64 { return t.fraction }

// Summary is the per-dataset artifact of a sampling technique: the sample
// itself and the fraction actually achieved.
type Summary struct {
	name     string
	items    int // original dataset cardinality
	sample   []geom.Rect
	achieved float64 // len(sample)/items
}

// DatasetName implements core.Summary.
func (s *Summary) DatasetName() string { return s.name }

// ItemCount implements core.Summary.
func (s *Summary) ItemCount() int { return s.items }

// SampleSize returns the number of sampled items.
func (s *Summary) SampleSize() int { return len(s.sample) }

// SizeBytes implements core.Summary: 32 bytes per sampled rectangle.
func (s *Summary) SizeBytes() int64 { return int64(len(s.sample)) * 32 }

// Build implements core.Technique: draw the sample.
func (t *Technique) Build(d *dataset.Dataset) (core.Summary, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("sample: dataset %q is empty", d.Name)
	}
	smp := t.draw(d)
	mSampleDraws.Add(uint64(len(smp)))
	return &Summary{
		name:     d.Name,
		items:    d.Len(),
		sample:   smp,
		achieved: float64(len(smp)) / float64(d.Len()),
	}, nil
}

// draw picks the sample according to the configured method.
func (t *Technique) draw(d *dataset.Dataset) []geom.Rect {
	n := int(math.Round(t.fraction * float64(d.Len())))
	if n < 1 {
		n = 1
	}
	if n > d.Len() {
		n = d.Len()
	}
	switch t.method {
	case RSWR:
		rng := rand.New(rand.NewSource(t.seed))
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = d.Items[rng.Intn(d.Len())]
		}
		return out
	case SS:
		order, _ := d.HilbertOrder()
		return systematic(d.Items, order, n)
	default: // RS
		return systematic(d.Items, nil, n)
	}
}

// systematic takes every k-th item of items in the given order (nil = as
// stored), k = ⌈N/n⌉, then tops up from the unvisited prefix offsets if the
// stride undershoots the requested size.
func systematic(items []geom.Rect, order []int32, n int) []geom.Rect {
	k := (len(items) + n - 1) / n
	if k < 1 {
		k = 1
	}
	out := make([]geom.Rect, 0, n)
	for off := 0; len(out) < n && off < k; off++ {
		for i := off; i < len(items) && len(out) < n; i += k {
			if order != nil {
				out = append(out, items[order[i]])
			} else {
				out = append(out, items[i])
			}
		}
	}
	return out
}

// Estimate implements core.Technique: join the samples and scale by the
// inverse achieved fractions.
func (t *Technique) Estimate(a, b core.Summary) (core.Estimate, error) {
	sa, ok := a.(*Summary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	sb, ok := b.(*Summary)
	if !ok {
		return core.Estimate{}, core.ErrSummaryMismatch
	}
	if sa.achieved == 0 || sb.achieved == 0 {
		return core.Estimate{}, fmt.Errorf("sample: zero achieved fraction")
	}
	count := sweep.Count(sa.sample, sb.sample)
	pairs := float64(count) / (sa.achieved * sb.achieved)
	return core.NewEstimate(pairs, sa.items, sb.items), nil
}

// Full returns a pseudo-sampling technique with fraction 1 (the paper's
// "100" configurations, where one side uses the entire dataset).
func Full(method Method, opts ...Option) *Technique {
	return MustNew(method, 1, opts...)
}

// Asymmetric wraps two sampling techniques so the left and right datasets
// can be drawn at different fractions (the 0.1/100, 100/10 … combinations of
// Figure 6). It implements core.Technique; Build alternates is not needed —
// the caller builds each side with the corresponding technique via the
// BuildLeft/BuildRight helpers, and Estimate accepts summaries from either.
type Asymmetric struct {
	Left, Right *Technique
}

// NewAsymmetric pairs two sampling configurations sharing a method.
func NewAsymmetric(method Method, leftFrac, rightFrac float64, opts ...Option) (*Asymmetric, error) {
	l, err := New(method, leftFrac, opts...)
	if err != nil {
		return nil, err
	}
	r, err := New(method, rightFrac, opts...)
	if err != nil {
		return nil, err
	}
	return &Asymmetric{Left: l, Right: r}, nil
}

// Name implements core.Technique.
func (a *Asymmetric) Name() string {
	return fmt.Sprintf("%s(%g%%/%g%%)", a.Left.method, a.Left.fraction*100, a.Right.fraction*100)
}

// Build implements core.Technique by drawing with the left configuration;
// use BuildRight for the right dataset.
func (a *Asymmetric) Build(d *dataset.Dataset) (core.Summary, error) { return a.Left.Build(d) }

// BuildRight draws the right-hand dataset at the right fraction.
func (a *Asymmetric) BuildRight(d *dataset.Dataset) (core.Summary, error) { return a.Right.Build(d) }

// Estimate implements core.Technique. The summaries carry their achieved
// fractions, so the left technique's Estimate handles the scaling for any
// fraction combination.
func (a *Asymmetric) Estimate(sa, sb core.Summary) (core.Estimate, error) {
	return a.Left.Estimate(sa, sb)
}
