// Command sdbvet runs the project's static-analysis suite (internal/lint)
// over the repository: five analyzers that machine-check the engine's
// concurrency and determinism invariants — three syntactic ones (ctxpoll,
// floateq, maporder) plus two flow-sensitive ones (lockorder, unlockpath)
// built on the internal/lint/cfg control-flow graphs. It is wired into
// `make lint` (and thus `make check`), so a violation fails the build.
//
//	$ go run ./cmd/sdbvet ./...
//	$ go run ./cmd/sdbvet ./internal/rtree
//	$ go run ./cmd/sdbvet -list
//
// Patterns are the go tool's, resolved against the working directory; a
// "..." pattern also covers the modules nested below it (bench/). The go
// tool lists the packages and compiles their imports; sdbvet type-checks
// only the named packages, against that export data, and analyzes them in
// one serial pass. Deliberate violations are suppressed in source with a
// reasoned directive on or directly above the offending line:
//
//	//lint:ignore floateq zero-value sentinel; exact comparison intended
//
// A directive that suppresses nothing is itself a finding.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Diagnostics go
// to stdout, one per line (file:line:col: analyzer: message, the file
// relative to the working directory); the one-line summary and errors go to
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spatialsel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
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
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "sdbvet:", err)
		return 2
	}
	res := lint.Run(pkgs)
	res.Relativize(cwd)
	res.Write(stdout)
	fmt.Fprintln(stderr, res.Summary())
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
