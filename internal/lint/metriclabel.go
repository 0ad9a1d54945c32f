package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// metricNamespaces are the first name segments the engine reserves: the
// mini-DBMS (sdb), the daemon (sdbd), and the per-subsystem estimator and
// index namespaces. histogram and sample are the long-standing namespaces of
// the paper's two estimator families (GH/PH roll up under histogram_* with a
// technique label rather than top-level gh_*/ph_* families — that is the
// published exposition contract); gh, ph, and rtree cover code that labels
// at the family level.
var metricNamespaces = map[string]bool{
	"sdb": true, "sdbd": true, "rtree": true,
	"gh": true, "ph": true, "histogram": true, "sample": true,
}

// metricConstructors are the *obs.Registry methods that create or look up a
// series by name.
var metricConstructors = map[string]bool{
	"Counter": true, "FloatCounter": true, "Gauge": true,
	"Histogram": true, "CounterFunc": true, "GaugeFunc": true,
}

// MetricLabel returns the metriclabel analyzer.
//
// Invariants, in order of the checks below:
//
//  1. Metric names passed to obs registry constructors must be snake_case
//     string literals in a reserved engine namespace — the deterministic
//     /metrics render sorts by name, dashboards and bench/'s per-layer
//     attribution key on these strings, and a misspelled or off-convention
//     name silently forks a family.
//  2. Counter-kind names must end in _total (the Prometheus counter
//     convention the whole exposition follows).
//  3. Registry constructor calls must not sit inside loop bodies: each call
//     takes the registry lock and hashes the label set, so hot loops must
//     hoist the instrument lookup (the engine's own join kernels accumulate
//     locally and flush once for exactly this reason).
func MetricLabel() *Analyzer {
	a := &Analyzer{
		Name: "metriclabel",
		Doc:  "obs metric names must be canonical; lookups must be hoisted out of loops",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			checkMetricCalls(pass, f)
		}
	}
	return a
}

// checkMetricCalls walks one file tracking loop nesting within the current
// function. A function literal resets the depth (the literal may run outside
// the loop that created it); a loop statement raises it for everything it
// re-evaluates per iteration.
func checkMetricCalls(pass *Pass, f *ast.File) {
	var walk func(n ast.Node, loops int)
	walk = func(n ast.Node, loops int) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch s := c.(type) {
			case *ast.FuncLit:
				walk(s.Body, 0)
				return false
			case *ast.ForStmt:
				if s.Init != nil {
					walk(s.Init, loops)
				}
				for _, part := range []ast.Node{s.Cond, s.Post, s.Body} {
					if part != nil {
						walk(part, loops+1)
					}
				}
				return false
			case *ast.RangeStmt:
				walk(s.X, loops) // evaluated once
				walk(s.Body, loops+1)
				return false
			case *ast.CallExpr:
				if name, ok := registryConstructor(pass, s); ok {
					if loops > 0 {
						pass.Reportf(s.Pos(),
							"registry lookup %s inside a loop body: hoist the instrument out of the loop (each call locks the registry and hashes labels)",
							name)
					}
					checkMetricName(pass, s, name)
				}
			}
			return true
		})
	}
	walk(f, 0)
}

// registryConstructor reports whether the call is one of the obs.Registry
// series constructors, returning its method name.
func registryConstructor(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !metricConstructors[sel.Sel.Name] {
		return "", false
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Name() != "Registry" || tn.Pkg() == nil || !strings.HasSuffix(tn.Pkg().Path(), "internal/obs") {
		return "", false
	}
	return "Registry." + sel.Sel.Name, true
}

// checkMetricName validates the name argument of a registry constructor.
func checkMetricName(pass *Pass, call *ast.CallExpr, ctor string) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(call.Args[0].Pos(),
			"metric name passed to %s must be a string literal so the series set is auditable", ctor)
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !isSnakeCase(name) {
		pass.Reportf(lit.Pos(), "metric name %q is not snake_case ([a-z0-9_], starting with a letter)", name)
		return
	}
	seg, _, _ := strings.Cut(name, "_")
	if !metricNamespaces[seg] {
		pass.Reportf(lit.Pos(),
			"metric name %q is outside the engine namespaces (want first segment in sdb/sdbd/rtree/gh/ph/histogram/sample)", name)
		return
	}
	switch ctor {
	case "Registry.Counter", "Registry.FloatCounter", "Registry.CounterFunc":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "counter %q must end in _total (Prometheus counter convention)", name)
		}
	}
}

// isSnakeCase reports whether the name is lower-snake-case beginning with a
// letter, with non-empty segments between underscores.
func isSnakeCase(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	prevUnderscore := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' {
			if prevUnderscore || i == len(s)-1 {
				return false
			}
			prevUnderscore = true
			continue
		}
		prevUnderscore = false
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}
