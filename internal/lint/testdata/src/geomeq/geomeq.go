// Package geomeq is lint-test corpus: floateq across a package boundary. It
// compares spatialsel/internal/geom values, whose type the loader reads from
// export data rather than from source; a geom.Rect is still a struct of
// floats.
package geomeq

import "spatialsel/internal/geom"

// SameRect compares two rectangles with ==. (violation)
func SameRect(a, b geom.Rect) bool {
	return a == b // want floateq
}

// MovedCenter compares two points with !=. (violation)
func MovedCenter(a, b geom.Rect) bool {
	return a.Center() != b.Center() // want floateq
}

// SameByContract goes through the method whose documented contract is
// bit-exact identity. (clean)
func SameByContract(a, b geom.Rect) bool {
	return a.Equal(b)
}

// EmptyRect documents an intended exact comparison. (clean: suppressed)
func EmptyRect(r geom.Rect) bool {
	//lint:ignore floateq corpus: the zero rectangle is the documented sentinel
	return r == geom.Rect{}
}

// SameSide compares the integer cells two coordinates fall in. (clean)
func SameSide(a, b float64) bool {
	return geom.CellOf(a, 8) == geom.CellOf(b, 8)
}
