package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package: the unit the
// analyzers run over. Test files (*_test.go) are excluded — the invariants
// sdbvet enforces are production-code properties, and tests deliberately do
// things like compare floats exactly.
type Package struct {
	Path  string // import path, e.g. spatialsel/internal/rtree
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-internal imports are resolved against the module
// root, everything else falls back to the stdlib source importer.
//
// The loader is safe for concurrent LoadDir/LoadDirs calls: the memoization
// caches are mutex-guarded with per-package in-flight latches (two
// goroutines importing the same package rendezvous instead of checking it
// twice), the shared token.FileSet is concurrency-safe by contract, and the
// stdlib fallback importer — which is not — is serialized separately.
type Loader struct {
	Root    string // module root (directory containing go.mod)
	ModPath string // module path from go.mod

	fset *token.FileSet

	mu       sync.Mutex
	cache    map[string]*Package // by import path
	loading  map[string]*loadLatch
	typCache map[string]*types.Package

	fbMu     sync.Mutex // serializes the stdlib source importer
	fallback types.ImporterFrom
}

// loadLatch is one in-flight package load; waiters block on done, then read
// p and err (written before done closes).
type loadLatch struct {
	done chan struct{}
	p    *Package
	err  error
}

// NewLoader locates the enclosing module of dir and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:     root,
		ModPath:  modPath,
		fset:     fset,
		cache:    make(map[string]*Package),
		loading:  make(map[string]*loadLatch),
		typCache: make(map[string]*types.Package),
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}, nil
}

// findModule walks up from dir to the first go.mod and reads its module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// Expand resolves command-line package patterns into package directories,
// relative to the loader's module root. Supported forms are "./..."-style
// recursive patterns and plain (relative or absolute) directories. testdata,
// hidden, and vendor directories are never matched by "...".
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if strings.HasSuffix(pat, "...") {
			base := filepath.Join(l.Root, strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/"))
			err := filepath.WalkDir(base, func(path string, de os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if de.IsDir() {
					name := de.Name()
					if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(de.Name(), ".go") && !strings.HasSuffix(de.Name(), "_test.go") {
					add(filepath.Dir(path))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		d := pat
		if !filepath.IsAbs(d) {
			d = filepath.Join(l.Root, d)
		}
		fi, err := os.Stat(d)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: %q is not a package directory", pat)
		}
		add(d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPath maps an absolute package directory to its module import path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDirs loads every directory as one package each, in order, fanning the
// loads out over workers goroutines when workers > 1. The returned slice is
// in input order either way; on failure the error of the earliest failing
// directory is returned.
func (l *Loader) LoadDirs(dirs []string, workers int) ([]*Package, error) {
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	if workers < 2 || len(dirs) < 2 {
		for i, dir := range dirs {
			pkgs[i], errs[i] = l.LoadDir(dir)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					pkgs[i], errs[i] = l.LoadDir(dirs[i])
				}
			}()
		}
		for i := range dirs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir (memoized by
// import path).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// load is the memoized parse+check core shared by LoadDir and the importer.
// Concurrent loads of the same package rendezvous on an in-flight latch; the
// loser blocks until the winner's result lands in the cache. Waiting holds no
// lock, and the module import graph is acyclic, so latch waits cannot cycle.
func (l *Loader) load(path, dir string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.cache[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if fl, ok := l.loading[path]; ok {
		l.mu.Unlock()
		<-fl.done
		return fl.p, fl.err
	}
	fl := &loadLatch{done: make(chan struct{})}
	l.loading[path] = fl
	l.mu.Unlock()

	fl.p, fl.err = l.loadUncached(path, dir)

	l.mu.Lock()
	delete(l.loading, path)
	if fl.err == nil {
		l.cache[path] = fl.p
	}
	l.mu.Unlock()
	close(fl.done)
	return fl.p, fl.err
}

// loadUncached parses and type-checks one package. Called without l.mu held:
// type-checking recurses into load for module-internal imports.
func (l *Loader) loadUncached(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// moduleImporter adapts the loader into a types.Importer: module-internal
// paths load from source under the module root, everything else (the standard
// library) goes through the stdlib source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(m)
	l.mu.Lock()
	tp, ok := l.typCache[path]
	l.mu.Unlock()
	if ok {
		return tp, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.load(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.typCache[path] = p.Types
		l.mu.Unlock()
		return p.Types, nil
	}
	// The stdlib source importer is not concurrency-safe; serialize it and
	// re-check the cache once inside so a contended package imports once.
	l.fbMu.Lock()
	l.mu.Lock()
	tp, ok = l.typCache[path]
	l.mu.Unlock()
	if ok {
		l.fbMu.Unlock()
		return tp, nil
	}
	tp, err := l.fallback.ImportFrom(path, dir, mode)
	l.fbMu.Unlock()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.typCache[path] = tp
	l.mu.Unlock()
	return tp, nil
}
