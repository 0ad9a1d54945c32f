// Package lint is a from-scratch static-analysis framework on the standard
// library's go/ast, go/parser, and go/types — no golang.org/x/tools — plus
// the project's five analyzers: unpolled cancellation loops (ctxpoll),
// map-iteration order leaking into output (maporder), exact float comparison
// (floateq), and mutex acquisition order and release paths (lockorder,
// unlockpath, on the internal/lint/cfg control-flow graphs). An analyzer is
// here because it has found bugs in this engine that nothing cheaper would
// have; invariants a type, the compiler or one test can hold are held there
// instead. DESIGN.md "Static analysis" lists which mechanism holds what.
//
// The cmd/sdbvet command is the CLI front end; `make lint` runs it over the
// whole repository on every check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical file:line:col: analyzer: message form. File
// paths are rendered as given (the runner rewrites them relative to the
// module root).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	Name string // short lowercase identifier, used in flags and ignore comments
	Doc  string // one-line description of the enforced invariant
	Run  func(*Pass)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxPoll(),
		FloatEq(),
		LockOrder(),
		MapOrder(),
		UnlockPath(),
	}
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // names covered; "*" covers all
	line      int             // line the directive appears on
	pos       token.Position  // full position, for stale-directive reports
	used      bool
}

// parseIgnores extracts the //lint:ignore directives of a file. A directive
// reads `//lint:ignore <analyzer>[,<analyzer>...] <reason>` and suppresses
// matching diagnostics on its own line (trailing comment) and on the line
// directly below (comment-above-statement). A missing reason is itself
// reported as a diagnostic, so suppressions stay auditable.
func parseIgnores(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: "ignore",
					Message:  "malformed directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
				})
				continue
			}
			names := map[string]bool{}
			for _, n := range strings.Split(fields[0], ",") {
				names[n] = true
			}
			out = append(out, &ignoreDirective{analyzers: names, line: pos.Line, pos: pos})
		}
	}
	return out
}

// Result is one repository run's outcome.
type Result struct {
	Diagnostics []Diagnostic // surviving (non-suppressed) findings, sorted
	Files       int
	Packages    int
	Suppressed  int
}

// Options tunes one Run.
type Options struct {
	// StaleIgnores additionally reports //lint:ignore directives that
	// suppressed nothing — dead suppressions outlive the code they excused
	// and silently blind the analyzer they name.
	StaleIgnores bool
	// Workers bounds package-level analysis parallelism; values below 2 run
	// serially. Output is deterministic regardless: per-package results merge
	// in input order and the final list is position-sorted.
	Workers int
}

// Run executes the enabled analyzers over the packages and applies ignore
// directives. Paths in the returned diagnostics are left absolute; callers
// that want root-relative output use Relativize.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	return RunOpts(pkgs, analyzers, Options{})
}

// RunOpts is Run with explicit Options.
func RunOpts(pkgs []*Package, analyzers []*Analyzer, opts Options) Result {
	var res Result
	var all []Diagnostic
	var ignores []*ignoreDirective
	byFile := map[string][]*ignoreDirective{}
	for _, pkg := range pkgs {
		res.Packages++
		for _, f := range pkg.Files {
			res.Files++
			ds := parseIgnores(pkg.Fset, f, &all)
			name := pkg.Fset.Position(f.Pos()).Filename
			byFile[name] = append(byFile[name], ds...)
			ignores = append(ignores, ds...)
		}
	}
	all = append(all, analyze(pkgs, analyzers, opts.Workers)...)
	for _, d := range all {
		if d.Analyzer != "ignore" && suppressed(byFile[d.Pos.Filename], d) {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	if opts.StaleIgnores {
		res.Diagnostics = append(res.Diagnostics, staleIgnores(ignores, analyzers)...)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// analyze runs every analyzer over every package, fanning packages out over
// workers goroutines. Each package gets its own diagnostic slice, and the
// slices merge in input order, so the result is identical to a serial run.
// Analyzers carry no cross-package state (each Run reads only its Pass), and
// the shared token.FileSet is safe for concurrent position lookups.
func analyze(pkgs []*Package, analyzers []*Analyzer, workers int) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	runPkg := func(i int) {
		var ds []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Package: pkgs[i], analyzer: a, diags: &ds}
			a.Run(pass)
		}
		perPkg[i] = ds
	}
	if workers < 2 || len(pkgs) < 2 {
		for i := range pkgs {
			runPkg(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runPkg(i)
				}
			}()
		}
		for i := range pkgs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var all []Diagnostic
	for _, ds := range perPkg {
		all = append(all, ds...)
	}
	return all
}

// staleIgnores reports directives that suppressed nothing. A directive is
// only judged when this run could have vindicated it: every analyzer it
// names ran (a "*" directive needs the full suite), otherwise the diagnostic
// it suppresses might simply not have been looked for.
func staleIgnores(ignores []*ignoreDirective, analyzers []*Analyzer) []Diagnostic {
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	fullSuite := true
	for _, a := range Analyzers() {
		if !running[a.Name] {
			fullSuite = false
			break
		}
	}
	var out []Diagnostic
	for _, ig := range ignores {
		if ig.used {
			continue
		}
		judged := true
		for name := range ig.analyzers {
			if name == "*" {
				judged = judged && fullSuite
			} else {
				judged = judged && running[name]
			}
		}
		if !judged {
			continue
		}
		names := make([]string, 0, len(ig.analyzers))
		for n := range ig.analyzers {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Pos:      ig.pos,
			Analyzer: "ignore",
			Message: fmt.Sprintf("stale //lint:ignore %s: it suppresses nothing — remove it (dead suppressions blind the analyzer they name)",
				strings.Join(names, ",")),
		})
	}
	return out
}

// suppressed reports whether an ignore directive in the diagnostic's file
// covers it: same line, or the line directly above.
func suppressed(ds []*ignoreDirective, d Diagnostic) bool {
	for _, ig := range ds {
		if ig.line != d.Pos.Line && ig.line != d.Pos.Line-1 {
			continue
		}
		if ig.analyzers[d.Analyzer] || ig.analyzers["*"] {
			ig.used = true
			return true
		}
	}
	return false
}

// Relativize rewrites diagnostic file paths relative to root for stable,
// machine-diffable output.
func (r *Result) Relativize(root string) {
	for i := range r.Diagnostics {
		if rel, ok := strings.CutPrefix(r.Diagnostics[i].Pos.Filename, root+"/"); ok {
			r.Diagnostics[i].Pos.Filename = rel
		}
	}
}

// Write prints each diagnostic on its own line.
func (r *Result) Write(w io.Writer) {
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d.String())
	}
}

// Summary is the one-line health report `make lint` logs: scanned volume,
// surviving findings, and how many were explicitly suppressed.
func (r *Result) Summary() string {
	return fmt.Sprintf("sdbvet: %d packages, %d files scanned, %d diagnostics, %d suppressed",
		r.Packages, r.Files, len(r.Diagnostics), r.Suppressed)
}

// ---- shared AST helpers used by several analyzers ----------------------

// funcScopeWalk walks the statements of a function body without descending
// into nested function literals when descendLits is false.
func funcScopeWalk(n ast.Node, descendLits bool, visit func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok && !descendLits && c != n {
			return false
		}
		return visit(c)
	})
}

// usesObject reports whether the subtree references the given object.
func usesObject(pkg *Package, n ast.Node, target types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && pkg.Info.Uses[id] == target {
			found = true
		}
		return true
	})
	return found
}
