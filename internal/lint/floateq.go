package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatEqScopes are the import-path fragments floateq applies to: the
// numeric kernels where bit-exact float comparison is almost always a
// rounding bug (geometry predicates, histogram cell math), plus the cmd tree, which formats and compares
// results. The "lint/testdata" entry keeps the analyzer testable against its
// corpus without widening the production scope.
var floatEqScopes = []string{
	"internal/geom",
	"internal/histogram",
	"/cmd/",
	"lint/testdata",
}

// FloatEq returns the floateq analyzer.
//
// Invariant: in the numeric kernel packages, == and != on floating-point
// operands (including structs and arrays built from floats, like geom.Rect)
// need either an epsilon or an explicit statement that bit-exact comparison
// is intended. The paper's estimators agree with the exact joins only
// because cell boundaries are compared consistently; a float == that holds
// on one code path and fails on another after a fused multiply or a
// different summation order is the classic silent-divergence bug. Deliberate
// exact comparisons (zero-value sentinels, Rect.Equal) carry a
// //lint:ignore floateq with the reason.
func FloatEq() *Analyzer {
	a := &Analyzer{
		Name: "floateq",
		Doc:  "no ==/!= on float operands in the numeric kernel packages",
	}
	a.Run = func(pass *Pass) {
		if !floatEqInScope(pass.Path) {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				xt := pass.Info.Types[be.X]
				yt := pass.Info.Types[be.Y]
				// Two untyped constants fold at compile time; exactness there
				// is the compiler's problem, not a runtime hazard.
				if xt.Value != nil && yt.Value != nil {
					return true
				}
				if containsFloat(xt.Type) || containsFloat(yt.Type) {
					pass.Reportf(be.OpPos,
						"%s on floating-point operands (%s): use an epsilon, or annotate the deliberate bit-exact comparison",
						be.Op, pass.Info.Types[be.X].Type)
				}
				return true
			})
		}
	}
	return a
}

// floatEqInScope reports whether the package path is inside the analyzer's
// configured scope.
func floatEqInScope(path string) bool {
	for _, s := range floatEqScopes {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// containsFloat reports whether t is a float type or a composite built from
// one (struct fields, array elements) — the comparable shapes where == is
// float comparison in disguise.
func containsFloat(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsFloat(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return containsFloat(u.Elem())
	}
	return false
}
