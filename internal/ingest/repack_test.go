package ingest

import "testing"

// TestShouldRepack pins the policy's trigger and the churn floor under it:
// below MinChurn nothing fires, above it the churn's share of the base does.
func TestShouldRepack(t *testing.T) {
	p := RepackPolicy{}.withDefaults()
	for _, tc := range []struct {
		name string
		d    Degradation
		want bool
	}{
		{"quiet", Degradation{Churn: 1, ChurnRatio: 0.001}, false},
		{"below floor despite ratio", Degradation{Churn: p.MinChurn - 1, ChurnRatio: 1}, false},
		{"at floor, small share", Degradation{Churn: p.MinChurn, ChurnRatio: 0.01}, false},
		{"churn ratio", Degradation{Churn: p.MinChurn, ChurnRatio: p.MaxChurnRatio}, true},
	} {
		if got := p.ShouldRepack(tc.d); got != tc.want {
			t.Errorf("%s: ShouldRepack(%+v) = %v, want %v", tc.name, tc.d, got, tc.want)
		}
	}
}
