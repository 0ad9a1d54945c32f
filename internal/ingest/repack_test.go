package ingest

import "testing"

// TestShouldRepack pins the policy's two triggers and the churn floor under
// them: below MinChurn nothing fires, above it either the churn ratio or the
// write tree's overlap factor does.
func TestShouldRepack(t *testing.T) {
	p := RepackPolicy{}.withDefaults()
	for _, tc := range []struct {
		name string
		d    Degradation
		want bool
	}{
		{"quiet", Degradation{Churn: 1, ChurnRatio: 0.001, Overlap: 0.01}, false},
		{"below floor despite ratio and overlap", Degradation{Churn: p.MinChurn - 1, ChurnRatio: 1, Overlap: 1}, false},
		{"at floor, healthy", Degradation{Churn: p.MinChurn, ChurnRatio: 0.01, Overlap: 0.01}, false},
		{"churn ratio", Degradation{Churn: p.MinChurn, ChurnRatio: p.MaxChurnRatio, Overlap: 0.01}, true},
		{"overlap", Degradation{Churn: p.MinChurn, ChurnRatio: 0.01, Overlap: p.MaxOverlap}, true},
	} {
		if got := p.ShouldRepack(tc.d); got != tc.want {
			t.Errorf("%s: ShouldRepack(%+v) = %v, want %v", tc.name, tc.d, got, tc.want)
		}
	}
}
