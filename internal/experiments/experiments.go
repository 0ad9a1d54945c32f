// Package experiments reproduces the paper's evaluation (§4): the four
// dataset-pair workloads, the four metrics (Estimation Error, Estimation
// Time relative to the actual join, Space Cost relative to the R-trees, and
// Building Time relative to R-tree construction), and harnesses that
// regenerate every Figure-6 and Figure-7 series as text tables.
package experiments

import (
	"fmt"
	"io"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/histogram"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sample"
)

// Workload is one dataset pair prepared for experiments: the exact join
// result and the R-tree baselines every relative metric is normalized
// against.
type Workload struct {
	Name  string
	A, B  *dataset.Dataset
	Truth core.GroundTruth

	// RTreeBuildTime is the cost of bulk-loading R-trees over both full
	// datasets — the paper's Building Time denominator, and part of the
	// "R-trees not available" join cost.
	RTreeBuildTime time.Duration
	// RTreeJoinTime is the synchronized-traversal join cost given existing
	// R-trees — the Est. Time 2 denominator.
	RTreeJoinTime time.Duration
	// RTreeBytes is the combined R-tree footprint — the Space Cost
	// denominator.
	RTreeBytes int64
}

// TotalJoinTime is the "R-trees not available" join cost: building both
// trees plus joining them — the Est. Time 1 denominator.
func (w *Workload) TotalJoinTime() time.Duration {
	return w.RTreeBuildTime + w.RTreeJoinTime
}

// Prepare computes a pair's ground truth and R-tree baselines.
func Prepare(p datagen.Pair) (*Workload, error) {
	w := &Workload{Name: p.Name, A: p.A, B: p.B}
	w.Truth = core.ComputeGroundTruth(p.A, p.B)

	start := time.Now()
	ta, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(p.A.Items))
	if err != nil {
		return nil, fmt.Errorf("experiments: build R-tree %s: %w", p.A.Name, err)
	}
	tb, err := rtree.BulkLoadSTR(rtree.ItemsFromRects(p.B.Items))
	if err != nil {
		return nil, fmt.Errorf("experiments: build R-tree %s: %w", p.B.Name, err)
	}
	w.RTreeBuildTime = time.Since(start)

	start = time.Now()
	joined := rtree.JoinCount(ta, tb)
	w.RTreeJoinTime = time.Since(start)
	if joined != w.Truth.PairCount {
		return nil, fmt.Errorf("experiments: R-tree join %d disagrees with sweep %d on %s",
			joined, w.Truth.PairCount, p.Name)
	}
	w.RTreeBytes = ta.ComputeStats().Bytes + tb.ComputeStats().Bytes
	return w, nil
}

// PrepareAll prepares the paper's four workloads at the given dataset scale.
func PrepareAll(scale float64) ([]*Workload, error) {
	pairs := datagen.PaperPairs(scale)
	out := make([]*Workload, len(pairs))
	for i, p := range pairs {
		w, err := Prepare(p)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// pct returns 100·num/den, guarding den = 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// SamplingCombo is one x-axis position of Figure 6: the sampling fractions
// applied to the two datasets (1 means the full dataset, printed as "100").
type SamplingCombo struct {
	FracA, FracB float64
}

// Label renders the combo in the paper's "0.1/100" notation (percentages).
func (c SamplingCombo) Label() string {
	return fmt.Sprintf("%g/%g", c.FracA*100, c.FracB*100)
}

// Figure6Combos is the paper's x-axis: three symmetric sample sizes followed
// by the six one-sided combinations.
var Figure6Combos = []SamplingCombo{
	{0.001, 0.001}, {0.01, 0.01}, {0.1, 0.1},
	{0.001, 1}, {1, 0.001}, {0.01, 1}, {1, 0.01}, {0.1, 1}, {1, 0.1},
}

// Figure6Methods is the bar order within each combo group.
var Figure6Methods = []sample.Method{sample.RSWR, sample.RS, sample.SS}

// SamplingResult is one bar of Figure 6.
type SamplingResult struct {
	Workload string
	Combo    string
	Method   string
	ErrorPct float64
	// EstTime1Pct is estimation cost (sampling + R-tree building on samples
	// + sample join) relative to the join cost when dataset R-trees must be
	// built first.
	EstTime1Pct float64
	// EstTime2Pct is the same cost relative to the join cost when dataset
	// R-trees already exist.
	EstTime2Pct float64
	// SpacePct is the sample artifacts' size relative to the dataset R-trees.
	SpacePct float64
}

// RunFigure6 produces every Figure-6 bar for one workload. Seed controls
// RSWR; the paper's instability observation can be reproduced by varying it.
func RunFigure6(w *Workload, seed int64) ([]SamplingResult, error) {
	var out []SamplingResult
	for _, combo := range Figure6Combos {
		for _, m := range Figure6Methods {
			asym, err := sample.NewAsymmetric(m, combo.FracA, combo.FracB, sample.WithSeed(seed))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			sa, err := asym.Build(w.A)
			if err != nil {
				return nil, err
			}
			sb, err := asym.BuildRight(w.B)
			if err != nil {
				return nil, err
			}
			est, err := asym.Estimate(sa, sb)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			out = append(out, SamplingResult{
				Workload:    w.Name,
				Combo:       combo.Label(),
				Method:      m.String(),
				ErrorPct:    100 * core.RelError(est.Selectivity, w.Truth.Selectivity),
				EstTime1Pct: pct(float64(elapsed), float64(w.TotalJoinTime())),
				EstTime2Pct: pct(float64(elapsed), float64(w.RTreeJoinTime)),
				SpacePct:    pct(float64(sa.SizeBytes()+sb.SizeBytes()), float64(w.RTreeBytes)),
			})
		}
	}
	return out, nil
}

// HistogramResult is one point of a Figure-7 curve.
type HistogramResult struct {
	Workload     string
	Technique    string // "PH" or "GH"
	Level        int
	ErrorPct     float64
	EstTimePct   float64 // estimation time / actual R-tree join time
	BuildTimePct float64 // histogram build time / R-tree build time
	SpacePct     float64 // histogram bytes / R-tree bytes
}

// RunFigure7 produces the PH and GH curves for levels 0..maxLevel on one
// workload. PH at level 0 is the prior parametric technique of [2].
func RunFigure7(w *Workload, maxLevel int) ([]HistogramResult, error) {
	var out []HistogramResult
	for level := 0; level <= maxLevel; level++ {
		ph, err := histogram.NewPH(level)
		if err != nil {
			return nil, err
		}
		gh, err := histogram.NewGH(level)
		if err != nil {
			return nil, err
		}
		for _, tc := range []struct {
			name string
			tech core.Technique
		}{{"PH", ph}, {"GH", gh}} {
			start := time.Now()
			sa, err := tc.tech.Build(w.A)
			if err != nil {
				return nil, err
			}
			sb, err := tc.tech.Build(w.B)
			if err != nil {
				return nil, err
			}
			buildTime := time.Since(start)

			// Histogram estimates run in microseconds; repeat until enough
			// wall time has accumulated for a stable per-call figure.
			est, err := tc.tech.Estimate(sa, sb)
			if err != nil {
				return nil, err
			}
			const minSample = 2 * time.Millisecond
			start = time.Now()
			reps := 0
			for time.Since(start) < minSample {
				if _, err := tc.tech.Estimate(sa, sb); err != nil {
					return nil, err
				}
				reps++
			}
			estTime := time.Since(start) / time.Duration(reps)

			out = append(out, HistogramResult{
				Workload:     w.Name,
				Technique:    tc.name,
				Level:        level,
				ErrorPct:     100 * core.RelError(est.Selectivity, w.Truth.Selectivity),
				EstTimePct:   pct(float64(estTime), float64(w.RTreeJoinTime)),
				BuildTimePct: pct(float64(buildTime), float64(w.RTreeBuildTime)),
				SpacePct:     pct(float64(sa.SizeBytes()+sb.SizeBytes()), float64(w.RTreeBytes)),
			})
		}
	}
	return out, nil
}

// StatsRow is one line of the auxiliary actual-join statistics table (the
// tech-report table the paper references for dataset/join details).
type StatsRow struct {
	Workload    string
	NA, NB      int
	CoverageA   float64
	CoverageB   float64
	PairCount   int
	Selectivity float64
	JoinTime    time.Duration
}

// RunStats summarizes each workload's datasets and exact join.
func RunStats(ws []*Workload) []StatsRow {
	out := make([]StatsRow, len(ws))
	for i, w := range ws {
		sa := w.A.ComputeStats()
		sb := w.B.ComputeStats()
		out[i] = StatsRow{
			Workload:    w.Name,
			NA:          sa.N,
			NB:          sb.N,
			CoverageA:   sa.Coverage,
			CoverageB:   sb.Coverage,
			PairCount:   w.Truth.PairCount,
			Selectivity: w.Truth.Selectivity,
			JoinTime:    w.Truth.JoinTime,
		}
	}
	return out
}

// PrintFigure6 renders Figure-6 results as a text table.
func PrintFigure6(w io.Writer, rows []SamplingResult) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Figure 6 — sampling techniques on %s\n", rows[0].Workload)
	fmt.Fprintf(w, "%-10s %-5s %10s %12s %12s %10s\n",
		"combo", "meth", "error%", "estTime1%", "estTime2%", "space%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-5s %10.2f %12.2f %12.2f %10.2f\n",
			r.Combo, r.Method, r.ErrorPct, r.EstTime1Pct, r.EstTime2Pct, r.SpacePct)
	}
}

// PrintFigure7 renders Figure-7 results as a text table.
func PrintFigure7(w io.Writer, rows []HistogramResult) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Figure 7 — histogram techniques on %s\n", rows[0].Workload)
	fmt.Fprintf(w, "%-5s %-4s %10s %12s %12s %10s\n",
		"level", "tech", "error%", "estTime%", "bldTime%", "space%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5d %-4s %10.2f %12.4f %12.2f %10.4f\n",
			r.Level, r.Technique, r.ErrorPct, r.EstTimePct, r.BuildTimePct, r.SpacePct)
	}
}

// PrintStats renders the auxiliary statistics table.
func PrintStats(w io.Writer, rows []StatsRow) {
	fmt.Fprintf(w, "Actual-join statistics\n")
	fmt.Fprintf(w, "%-10s %9s %9s %8s %8s %10s %14s %12s\n",
		"workload", "|A|", "|B|", "covA", "covB", "pairs", "selectivity", "joinTime")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9d %9d %8.4f %8.4f %10d %14.3e %12s\n",
			r.Workload, r.NA, r.NB, r.CoverageA, r.CoverageB, r.PairCount, r.Selectivity, r.JoinTime)
	}
}
