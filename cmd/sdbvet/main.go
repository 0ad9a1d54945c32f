// Command sdbvet runs the project's static-analysis suite (internal/lint)
// over the repository: five analyzers that machine-check the engine's
// concurrency and determinism invariants — three syntactic ones (ctxpoll,
// floateq, maporder) plus two flow-sensitive ones (lockorder, unlockpath)
// built on the internal/lint/cfg control-flow graphs. It is wired into
// `make lint` (and thus `make check`), so a violation fails the build.
//
//	$ go run ./cmd/sdbvet ./...
//	$ go run ./cmd/sdbvet -disable floateq ./internal/rtree
//	$ go run ./cmd/sdbvet -stale-ignores ./...
//	$ go run ./cmd/sdbvet -list
//
// Packages load and analyze in parallel (bounded by GOMAXPROCS); output is
// deterministic regardless. Deliberate violations are suppressed in source
// with a reasoned directive on or directly above the offending line:
//
//	//lint:ignore floateq zero-value sentinel; exact comparison intended
//
// -stale-ignores additionally reports directives that suppress nothing.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Diagnostics go
// to stdout, one per line (file:line:col: analyzer: message); the one-line
// summary and errors go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"spatialsel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	stale := fs.Bool("stale-ignores", false, "also report //lint:ignore directives that suppress nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "sdbvet:", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "sdbvet:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "sdbvet:", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "sdbvet:", err)
		return 2
	}
	workers := runtime.GOMAXPROCS(0)
	pkgs, err := loader.LoadDirs(dirs, workers)
	if err != nil {
		fmt.Fprintln(stderr, "sdbvet:", err)
		return 2
	}
	res := lint.RunOpts(pkgs, analyzers, lint.Options{StaleIgnores: *stale, Workers: workers})
	res.Relativize(loader.Root)
	res.Write(stdout)
	fmt.Fprintln(stderr, res.Summary())
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable to the full suite.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	listOf := func(csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		m := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (use -list)", n)
			}
			m[n] = true
		}
		return m, nil
	}
	on, err := listOf(enable)
	if err != nil {
		return nil, err
	}
	off, err := listOf(disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if on != nil && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}
