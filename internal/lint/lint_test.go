package lint

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// sharedLoader is the one loader every test in the package uses, so the
// standard library and the repository are parsed and type-checked once per
// test run rather than once per test.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// sharedRepo loads every package of the repository through sharedLoader over
// 8 workers: the loader's concurrent path is the one sdbvet runs, so it is
// the one the tests load with.
var sharedRepo = sync.OnceValues(func() (repo struct {
	dirs []string
	pkgs []*Package
}, err error) {
	loader, err := sharedLoader()
	if err != nil {
		return repo, err
	}
	if repo.dirs, err = loader.Expand([]string{"./..."}); err != nil {
		return repo, err
	}
	repo.pkgs, err = loader.LoadDirs(repo.dirs, 8)
	return repo, err
})

// corpusLoader returns the shared loader, rooted at the module.
func corpusLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// repoPackages returns the repository's package directories and the packages
// loaded from them, in the same order.
func repoPackages(t *testing.T) (dirs []string, pkgs []*Package) {
	t.Helper()
	repo, err := sharedRepo()
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	return repo.dirs, repo.pkgs
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
		{"lockorder", 3, 1},
		{"unlockpath", 3, 1},
		{"clean", 0, 0},
	}
	loader := corpusLoader(t)
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", tc.pkg))
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			res := Run([]*Package{pkg}, Analyzers())
			res.Relativize(loader.Root)
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

// TestPerAnalyzerSelection checks that running a single analyzer over a
// corpus package seeded for a different one reports nothing, i.e. analyzers
// do not bleed into each other's domains.
func TestPerAnalyzerSelection(t *testing.T) {
	loader := corpusLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "floateq"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, a := range Analyzers() {
		if a.Name == "floateq" {
			continue
		}
		res := Run([]*Package{pkg}, []*Analyzer{a})
		if len(res.Diagnostics) != 0 {
			t.Errorf("analyzer %s reported %d diagnostics on the floateq corpus: %v",
				a.Name, len(res.Diagnostics), res.Diagnostics)
		}
	}
}

// TestRepoClean is the meta-test: the analyzer suite must pass over the real
// repository (testdata is excluded by Expand, deliberate sentinels carry
// //lint:ignore directives).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	_, pkgs := repoPackages(t)
	res := Run(pkgs, Analyzers())
	res.Relativize(corpusLoader(t).Root)
	if len(res.Diagnostics) != 0 {
		var buf bytes.Buffer
		res.Write(&buf)
		t.Errorf("repository is not sdbvet-clean:\n%s", buf.String())
	}
	if res.Packages == 0 || res.Files == 0 {
		t.Errorf("suspiciously empty run: %s", res.Summary())
	}
}

// TestParallelRunMatchesSerial pins the determinism contract of Options.
// Workers: fanning packages out over goroutines must yield byte-identical
// output and identical suppression accounting.
func TestParallelRunMatchesSerial(t *testing.T) {
	loader := corpusLoader(t)
	var pkgs []*Package
	for _, name := range []string{
		"ctxpoll", "maporder", "floateq", "lockorder", "unlockpath", "clean",
	} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatalf("LoadDir %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	render := func(res Result) string {
		var buf bytes.Buffer
		res.Write(&buf)
		return buf.String()
	}
	serial := RunOpts(pkgs, Analyzers(), Options{})
	parallel := RunOpts(pkgs, Analyzers(), Options{Workers: 8})
	if got, want := render(parallel), render(serial); got != want {
		t.Errorf("parallel output differs from serial\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if parallel.Suppressed != serial.Suppressed || parallel.Packages != serial.Packages || parallel.Files != serial.Files {
		t.Errorf("parallel accounting differs: %s vs %s", parallel.Summary(), serial.Summary())
	}
}

// TestLoadDirsParallel exercises the loader's concurrency path over the real
// repository: many workers over the module's packages (cold for every one of
// them; only the corpus's handful of stdlib imports may be cached) must load
// each package whole. Run under -race this doubles as the loader's data-race
// test.
func TestLoadDirsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	dirs, pkgs := repoPackages(t)
	if len(pkgs) != len(dirs) {
		t.Fatalf("got %d packages for %d dirs", len(pkgs), len(dirs))
	}
	for i, p := range pkgs {
		if p == nil || len(p.Files) == 0 {
			t.Errorf("package %d (%s) loaded empty", i, dirs[i])
		}
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

// TestExpandSkipsTestdata guards the property the corpus depends on: a ./...
// pattern never descends into testdata, so seeded violations cannot fail the
// repository run.
func TestExpandSkipsTestdata(t *testing.T) {
	loader := corpusLoader(t)
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, d := range dirs {
		if filepath.Base(filepath.Dir(d)) == "testdata" || filepath.Base(d) == "testdata" {
			t.Errorf("Expand(./...) included testdata directory %s", d)
		}
		rel, err := filepath.Rel(loader.Root, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range filepath.SplitList(rel) {
			if seg == "testdata" {
				t.Errorf("Expand(./...) included %s", d)
			}
		}
	}
}
