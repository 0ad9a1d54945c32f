// Package core defines the selectivity-estimation API that every technique
// in this library implements, together with ground-truth computation and the
// error metrics of the paper's evaluation.
//
// The paper's techniques all share a two-phase shape: a per-dataset build
// phase producing an auxiliary structure (a histogram file, or a sample plus
// its R-tree), followed by an estimation phase that consults the two
// structures. Technique captures the phases; Summary is the per-dataset
// artifact. Ground truth (the actual join selectivity) comes from the exact
// plane-sweep join.
package core

import (
	"errors"
	"fmt"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/sweep"
)

// Estimate is the output of a selectivity estimation.
type Estimate struct {
	// PairCount is the estimated number of intersecting MBR pairs.
	PairCount float64
	// Selectivity is PairCount / (N1·N2), the paper's headline metric.
	Selectivity float64
}

// Summary is a per-dataset digest (histogram file or sample) built ahead of
// estimation.
type Summary interface {
	// DatasetName identifies the summarized dataset.
	DatasetName() string
	// ItemCount is the cardinality of the summarized dataset (needed to
	// convert pair counts to selectivities).
	ItemCount() int
	// SizeBytes estimates the storage footprint of the summary, used for the
	// paper's Space Cost metric.
	SizeBytes() int64
}

// Technique is a join-selectivity estimation technique.
type Technique interface {
	// Name returns a short identifier such as "GH(h=7)" or "RSWR(10%)".
	Name() string
	// Build constructs the per-dataset summary.
	Build(d *dataset.Dataset) (Summary, error)
	// Estimate produces a join-selectivity estimate from two summaries
	// previously produced by Build of the same technique.
	Estimate(a, b Summary) (Estimate, error)
}

// ErrSummaryMismatch is returned by Estimate when handed summaries built by a
// different technique or with incompatible parameters.
var ErrSummaryMismatch = errors.New("core: summary was not built by this technique or has incompatible parameters")

// NewEstimate fills in Selectivity from a pair count and the two dataset
// cardinalities, clamping negative counts to zero (parametric formulas can
// go negative on adversarial inputs).
func NewEstimate(pairCount float64, n1, n2 int) Estimate {
	if pairCount < 0 {
		pairCount = 0
	}
	e := Estimate{PairCount: pairCount}
	if n1 > 0 && n2 > 0 {
		e.Selectivity = pairCount / (float64(n1) * float64(n2))
	}
	return e
}

// GroundTruth is the exact result of a spatial join plus its cost, the
// reference every estimate is scored against.
type GroundTruth struct {
	PairCount   int
	Selectivity float64
	JoinTime    time.Duration
}

// ComputeGroundTruth runs the exact plane-sweep join and times it.
func ComputeGroundTruth(a, b *dataset.Dataset) GroundTruth {
	start := time.Now()
	count := sweep.Count(a.Items, b.Items)
	elapsed := time.Since(start)
	gt := GroundTruth{PairCount: count, JoinTime: elapsed}
	if a.Len() > 0 && b.Len() > 0 {
		gt.Selectivity = float64(count) / (float64(a.Len()) * float64(b.Len()))
	}
	return gt
}

// RelError is the paper's Estimation Error, |est − actual| / actual, as a
// ratio; an actual of zero reports the estimate itself (the error against
// 1), keeping the value finite for empty joins. It is the one definition:
// the operator spans of EXPLAIN ANALYZE, the server's per-request record and,
// times 100, the percentages of the evaluation tables all compute it here.
func RelError(est, actual float64) float64 {
	den := actual
	if den <= 0 {
		den = 1
	}
	e := est - actual
	if e < 0 {
		e = -e
	}
	return e / den
}

// Result bundles one technique's performance on one workload, in the paper's
// four metrics. Times are absolute here; experiments normalize them against
// join/build baselines when printing.
type Result struct {
	Technique    string
	Workload     string
	Estimate     Estimate
	Truth        GroundTruth
	ErrorPct     float64
	BuildTime    time.Duration // both summaries
	EstimateTime time.Duration
	SpaceBytes   int64 // both summaries
}

// Run builds both summaries, estimates, and scores against truth. The caller
// supplies the ground truth (typically computed once and shared across many
// techniques).
func Run(t Technique, a, b *dataset.Dataset, truth GroundTruth) (Result, error) {
	res := Result{Technique: t.Name(), Workload: a.Name + "-" + b.Name, Truth: truth}
	start := time.Now()
	sa, err := t.Build(a)
	if err != nil {
		return res, fmt.Errorf("build %s: %w", a.Name, err)
	}
	sb, err := t.Build(b)
	if err != nil {
		return res, fmt.Errorf("build %s: %w", b.Name, err)
	}
	res.BuildTime = time.Since(start)
	res.SpaceBytes = sa.SizeBytes() + sb.SizeBytes()

	start = time.Now()
	est, err := t.Estimate(sa, sb)
	if err != nil {
		return res, fmt.Errorf("estimate: %w", err)
	}
	res.EstimateTime = time.Since(start)
	res.Estimate = est
	res.ErrorPct = 100 * RelError(est.Selectivity, truth.Selectivity)
	return res, nil
}
