package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package: the unit the
// analyzers run over. Test files (*_test.go) are excluded — the invariants
// sdbvet enforces are production-code properties, and tests deliberately do
// things like compare floats exactly.
type Package struct {
	Path  string // import path, e.g. spatialsel/internal/rtree
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the part of one `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // compiled export data in the build cache
	DepOnly    bool   // listed only because a named package imports it
	Error      *struct{ Err string }
}

// Load returns the packages that patterns name, parsed and type-checked, in
// import-path order. The go tool does the finding: patterns are resolved
// against dir by `go list`, which owns the pattern syntax and what "..."
// skips (testdata, vendor, names starting with "." or "_"). Only the named
// packages are type-checked from source, because the analyzers need their
// syntax trees; every import resolves through the export data the same
// `go list -export` run reports, which the build cache already holds.
//
// A "..." pattern stops at a nested module's go.mod, so each module found
// below the pattern's root is listed in a run of its own. Any package the go
// tool or the type checker rejects fails the whole load.
func Load(dir string, patterns ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var pkgs []*Package
	for _, pat := range patterns {
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(dir, pat)
		}
		root, recursive := strings.CutSuffix(pat, "...")
		root = filepath.Clean(root)
		runs, arg := []string{root}, "."
		if recursive {
			nested, err := nestedModules(root)
			if err != nil {
				return nil, err
			}
			runs, arg = append(runs, nested...), "./..."
		}
		for _, runDir := range runs {
			listed, err := goList(runDir, arg)
			if err != nil {
				return nil, err
			}
			imp := exportImporter(fset, listed)
			for _, lp := range listed {
				if lp.DepOnly || seen[lp.ImportPath] {
					continue
				}
				seen[lp.ImportPath] = true
				p, err := check(fset, imp, lp)
				if err != nil {
					return nil, err
				}
				pkgs = append(pkgs, p)
			}
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// nestedModules lists the directories strictly below root that hold a
// go.mod, skipping the directories the go tool's "..." skips.
func nestedModules(root string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || !de.IsDir() || path == root {
			return err
		}
		if name := de.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	return mods, err
}

// goList runs `go list -e -json -export -deps pattern` in dir: the packages
// pattern names plus everything they import, each dependency with the path
// of its compiled export data. A package the go tool could not list or build
// is an error.
func goList(dir, pattern string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-e", "-json", "-export", "-deps", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if msg := bytes.TrimSpace(stderr.Bytes()); len(msg) > 0 {
			err = errors.New(string(msg))
		}
		return nil, fmt.Errorf("lint: go list %s in %s: %v", pattern, dir, err)
	}
	var listed []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("lint: go list %s in %s: %w", pattern, dir, err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, strings.TrimSpace(lp.Error.Err))
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// exportImporter resolves import paths through the export files of one
// go list run.
func exportImporter(fset *token.FileSet, listed []*listedPackage) types.Importer {
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(exports[path])
	})
}

// check parses one listed package's Go files and type-checks them.
func check(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
