package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

func TestNewEstimate(t *testing.T) {
	e := NewEstimate(50, 10, 100)
	if e.PairCount != 50 || e.Selectivity != 0.05 {
		t.Fatalf("NewEstimate = %+v", e)
	}
	// Negative counts clamp to zero.
	e = NewEstimate(-3, 10, 10)
	if e.PairCount != 0 || e.Selectivity != 0 {
		t.Fatalf("negative clamp = %+v", e)
	}
	// Zero cardinalities avoid division by zero.
	e = NewEstimate(5, 0, 10)
	if e.Selectivity != 0 {
		t.Fatalf("zero-cardinality selectivity = %g", e.Selectivity)
	}
}

func TestRelativeError(t *testing.T) {
	tests := []struct {
		est, actual, want float64
	}{
		{0.05, 0.05, 0},
		{0.055, 0.05, 10},
		{0.045, 0.05, 10},
		{0, 0, 0},
		{0.02, 0, 2}, // sentinel 100·estimate
		{0, 0.05, 100},
	}
	for _, tt := range tests {
		if got := RelativeError(tt.est, tt.actual); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("RelativeError(%g,%g) = %g, want %g", tt.est, tt.actual, got, tt.want)
		}
	}
}

func TestComputeGroundTruth(t *testing.T) {
	a := dataset.New("a", geom.UnitSquare, []geom.Rect{
		geom.NewRect(0, 0, 0.5, 0.5),
		geom.NewRect(0.6, 0.6, 0.7, 0.7),
	})
	b := dataset.New("b", geom.UnitSquare, []geom.Rect{
		geom.NewRect(0.4, 0.4, 0.65, 0.65), // hits both
	})
	gt := ComputeGroundTruth(a, b)
	if gt.PairCount != 2 {
		t.Fatalf("PairCount = %d, want 2", gt.PairCount)
	}
	if gt.Selectivity != 1.0 {
		t.Fatalf("Selectivity = %g, want 1", gt.Selectivity)
	}
	empty := dataset.New("e", geom.UnitSquare, nil)
	gt = ComputeGroundTruth(empty, b)
	if gt.PairCount != 0 || gt.Selectivity != 0 {
		t.Fatalf("empty truth = %+v", gt)
	}
}

// fakeTechnique estimates a constant selectivity; used to exercise Run.
type fakeSummary struct {
	name string
	n    int
}

func (s fakeSummary) DatasetName() string { return s.name }
func (s fakeSummary) ItemCount() int      { return s.n }
func (s fakeSummary) SizeBytes() int64    { return 128 }

type fakeTechnique struct {
	sel      float64
	buildErr error
	estErr   error
}

func (f fakeTechnique) Name() string { return "fake" }
func (f fakeTechnique) Build(d *dataset.Dataset) (Summary, error) {
	if f.buildErr != nil {
		return nil, f.buildErr
	}
	return fakeSummary{name: d.Name, n: d.Len()}, nil
}
func (f fakeTechnique) Estimate(a, b Summary) (Estimate, error) {
	if f.estErr != nil {
		return Estimate{}, f.estErr
	}
	n := float64(a.ItemCount()) * float64(b.ItemCount())
	return Estimate{PairCount: f.sel * n, Selectivity: f.sel}, nil
}

func TestRun(t *testing.T) {
	a := dataset.New("a", geom.UnitSquare, []geom.Rect{geom.NewRect(0, 0, 1, 1)})
	b := dataset.New("b", geom.UnitSquare, []geom.Rect{geom.NewRect(0, 0, 1, 1)})
	truth := ComputeGroundTruth(a, b) // selectivity 1

	res, err := Run(fakeTechnique{sel: 0.9}, a, b, truth)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Technique != "fake" || res.Workload != "a-b" {
		t.Errorf("identity fields: %+v", res)
	}
	if math.Abs(res.ErrorPct-10) > 1e-9 {
		t.Errorf("ErrorPct = %g, want 10", res.ErrorPct)
	}
	if res.SpaceBytes != 256 {
		t.Errorf("SpaceBytes = %d, want 256", res.SpaceBytes)
	}
	if res.BuildTime < 0 || res.EstimateTime < 0 {
		t.Errorf("negative times: %v %v", res.BuildTime, res.EstimateTime)
	}

	boom := errors.New("boom")
	if _, err := Run(fakeTechnique{buildErr: boom}, a, b, truth); !errors.Is(err, boom) {
		t.Errorf("build error not propagated: %v", err)
	}
	if _, err := Run(fakeTechnique{estErr: boom}, a, b, truth); !errors.Is(err, boom) {
		t.Errorf("estimate error not propagated: %v", err)
	}
}

func TestGroundTruthTiming(t *testing.T) {
	// JoinTime must be populated (non-negative; zero is possible on coarse
	// clocks but elapsed wall time should at least not be negative).
	a := dataset.New("a", geom.UnitSquare, make([]geom.Rect, 0))
	gt := ComputeGroundTruth(a, a)
	if gt.JoinTime < 0 || gt.JoinTime > time.Minute {
		t.Fatalf("JoinTime = %v", gt.JoinTime)
	}
}
