package lint

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// moduleRoot is the repository root the goldens' paths are relative to.
const moduleRoot = "../.."

// sharedCorpus loads every corpus package in one go list run, keyed by its
// directory name, so the corpus tests share one type-check.
var sharedCorpus = sync.OnceValues(func() (map[string]*Package, error) {
	pkgs, err := Load(".", "./testdata/src/...")
	byName := map[string]*Package{}
	for _, p := range pkgs {
		byName[path.Base(p.Path)] = p
	}
	return byName, err
})

// corpusPackage returns the corpus package in testdata/src/<name>.
func corpusPackage(t *testing.T, name string) *Package {
	t.Helper()
	corpus, err := sharedCorpus()
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	p := corpus[name]
	if p == nil {
		t.Fatalf("no corpus package %s", name)
	}
	return p
}

// relativeTo returns the absolute form of dir, for Relativize.
func relativeTo(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestCorpusGolden runs the full suite over each seeded-violation package and
// compares the exact file:line:col: analyzer: message output against the
// checked-in golden file. Run with -update to regenerate the goldens.
func TestCorpusGolden(t *testing.T) {
	cases := []struct {
		pkg        string
		diags      int // surviving diagnostics
		suppressed int // honored //lint:ignore directives
	}{
		{"ctxpoll", 2, 1},
		{"maporder", 5, 1},
		{"floateq", 5, 1},
		{"geomeq", 2, 1},
		{"lockorder", 4, 1},
		{"unlockpath", 3, 1},
		{"clean", 0, 0},
	}
	root := relativeTo(t, moduleRoot)
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			res := Run([]*Package{corpusPackage(t, tc.pkg)})
			res.Relativize(root)
			var buf bytes.Buffer
			res.Write(&buf)

			golden := filepath.Join("testdata", "golden", tc.pkg+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want (%s) ---\n%s", got, golden, want)
			}
			if len(res.Diagnostics) != tc.diags {
				t.Errorf("got %d diagnostics, want %d", len(res.Diagnostics), tc.diags)
			}
			if res.Suppressed != tc.suppressed {
				t.Errorf("got %d suppressed, want %d", res.Suppressed, tc.suppressed)
			}
		})
	}
}

// TestPerAnalyzerSelection checks that each analyzer other than floateq,
// run alone over the floateq corpus, reports nothing, i.e. analyzers do not
// bleed into each other's domains.
func TestPerAnalyzerSelection(t *testing.T) {
	pkg := corpusPackage(t, "floateq")
	for _, a := range Analyzers() {
		if a.Name == "floateq" {
			continue
		}
		var diags []Diagnostic
		a.Run(&Pass{Package: pkg, analyzer: a, diags: &diags})
		if len(diags) != 0 {
			t.Errorf("analyzer %s reported %d diagnostics on the floateq corpus: %v", a.Name, len(diags), diags)
		}
	}
}

// TestRepoClean is the meta-test: the analyzer suite must pass over the real
// repository (./... skips testdata, deliberate sentinels carry //lint:ignore
// directives), and bench/, a module of its own, is part of the run.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped with -short")
	}
	pkgs, err := Load(moduleRoot, "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	res := Run(pkgs)
	res.Relativize(relativeTo(t, moduleRoot))
	if len(res.Diagnostics) != 0 {
		var buf bytes.Buffer
		res.Write(&buf)
		t.Errorf("repository is not sdbvet-clean:\n%s", buf.String())
	}
	if res.Packages == 0 || res.Files == 0 {
		t.Errorf("suspiciously empty run: %s", res.Summary())
	}
	bench := false
	for _, p := range pkgs {
		bench = bench || p.Path == "spatialsel/bench"
		if strings.Contains(p.Path, "/testdata/") {
			t.Errorf("./... loaded testdata package %s", p.Path)
		}
	}
	if !bench {
		t.Error("./... did not load the nested bench module")
	}
}

// TestLoadRejectsBrokenPackage pins the load's failure contract: a package
// the go tool cannot list, or the type checker rejects, fails the load; it is
// never skipped.
func TestLoadRejectsBrokenPackage(t *testing.T) {
	for name, src := range map[string]string{
		"type error":     "package broken\n\nvar x int = \"s\"\n",
		"missing import": "package broken\n\nimport _ \"nosuch/pkg\"\n",
		"syntax error":   "package broken\n\nfunc {\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for file, body := range map[string]string{"go.mod": "module broken\n\ngo 1.22\n", "broken.go": src} {
				if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if pkgs, err := Load(dir, "./..."); err == nil {
				t.Errorf("Load succeeded with %d packages, want an error", len(pkgs))
			}
		})
	}
}

// TestMalformedIgnore verifies that a directive with no reason is itself a
// diagnostic, keeping suppressions auditable.
func TestMalformedIgnore(t *testing.T) {
	const src = `package p

//lint:ignore floateq
var x = 1.0
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	ds := parseIgnores(fset, f, &diags)
	if len(ds) != 0 {
		t.Errorf("malformed directive parsed as valid: %+v", ds)
	}
	if len(diags) != 1 || diags[0].Analyzer != "ignore" {
		t.Fatalf("want one 'ignore' diagnostic, got %+v", diags)
	}
	if diags[0].Pos.Line != 3 {
		t.Errorf("diagnostic at line %d, want 3", diags[0].Pos.Line)
	}
}

// TestIgnorePlacement verifies directives bind to their own line and to the
// line directly below — and nowhere else.
func TestIgnorePlacement(t *testing.T) {
	d := Diagnostic{Pos: token.Position{Filename: "f.go", Line: 10}, Analyzer: "floateq"}
	cases := []struct {
		line int
		want bool
	}{
		{10, true},  // trailing comment on the flagged line
		{9, true},   // comment directly above
		{8, false},  // too far above
		{11, false}, // below the flagged line
	}
	for _, tc := range cases {
		ig := &ignoreDirective{analyzers: map[string]bool{"floateq": true}, line: tc.line}
		if got := suppressed([]*ignoreDirective{ig}, d); got != tc.want {
			t.Errorf("directive on line %d: suppressed=%v, want %v", tc.line, got, tc.want)
		}
	}
	// Wrong analyzer name never suppresses, "*" always does.
	ig := &ignoreDirective{analyzers: map[string]bool{"maporder": true}, line: 10}
	if suppressed([]*ignoreDirective{ig}, d) {
		t.Error("directive for a different analyzer suppressed the diagnostic")
	}
	star := &ignoreDirective{analyzers: map[string]bool{"*": true}, line: 10}
	if !suppressed([]*ignoreDirective{star}, d) {
		t.Error("wildcard directive did not suppress")
	}
}

// TestExpandSkipsTestdata guards the property the corpus depends on: ./...
// expands to no package under testdata, so seeded violations cannot fail the
// repository run, while a pattern rooted in testdata still reaches them.
func TestExpandSkipsTestdata(t *testing.T) {
	pkgs, err := Load(".", "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if got, want := strings.Join(paths, " "), "spatialsel/internal/lint spatialsel/internal/lint/cfg"; got != want {
		t.Errorf("./... in internal/lint loaded %s, want %s", got, want)
	}
	corpusPackage(t, "floateq")
}
