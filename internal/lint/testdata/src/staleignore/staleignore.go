// Package staleignore is lint-test corpus for stale-suppression detection:
// the directive below names a real analyzer but suppresses nothing (integer
// comparison was never a floateq finding), so sdbvet must report it.
package staleignore

//lint:ignore floateq corpus: stale on purpose — nothing here compares floats
func eq(a, b int) bool { return a == b }

var _ = eq
