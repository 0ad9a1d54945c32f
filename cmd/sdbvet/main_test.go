package main

import (
	"bytes"
	"strings"
	"testing"
)

const (
	floateqCorpus = "./internal/lint/testdata/src/floateq"
	cleanCorpus   = "./internal/lint/testdata/src/clean"
)

// runVet invokes run with captured streams. Corpus paths are resolved against
// the module root by the loader, so the test's working directory is
// irrelevant.
func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	// Exactly the five analyzers the audit kept, in this order.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "ctxpoll floateq lockorder maporder unlockpath"; got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runVet(t, cleanCorpus)
	if code != 0 {
		t.Fatalf("clean corpus exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean corpus produced diagnostics:\n%s", stdout)
	}
	if !strings.Contains(stderr, "0 diagnostics") {
		t.Errorf("summary missing from stderr:\n%s", stderr)
	}
}

func TestSeededViolationsExitNonZero(t *testing.T) {
	code, stdout, stderr := runVet(t, floateqCorpus)
	if code != 1 {
		t.Fatalf("seeded corpus exited %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "floateq.go:20:11: floateq:") {
		t.Errorf("stdout missing expected diagnostic position:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 suppressed") {
		t.Errorf("summary should report the corpus suppression:\n%s", stderr)
	}
}

func TestDisableSkipsAnalyzer(t *testing.T) {
	code, stdout, _ := runVet(t, "-disable", "floateq", floateqCorpus)
	if code != 0 {
		t.Fatalf("-disable floateq still exited %d:\n%s", code, stdout)
	}
}

func TestEnableRestrictsSuite(t *testing.T) {
	// Only ctxpoll enabled: the floateq corpus has no ctxpoll violations.
	code, stdout, _ := runVet(t, "-enable", "ctxpoll", floateqCorpus)
	if code != 0 {
		t.Fatalf("-enable ctxpoll on floateq corpus exited %d:\n%s", code, stdout)
	}
	// Enabling the matching analyzer still finds the seeded violations.
	code, _, _ = runVet(t, "-enable", "floateq", floateqCorpus)
	if code != 1 {
		t.Fatalf("-enable floateq on floateq corpus exited %d, want 1", code)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	code, _, stderr := runVet(t, "-enable", "nosuch", cleanCorpus)
	if code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "nosuch") {
		t.Errorf("stderr should name the unknown analyzer:\n%s", stderr)
	}
}

func TestBadPatternIsUsageError(t *testing.T) {
	code, _, _ := runVet(t, "./no/such/dir")
	if code != 2 {
		t.Fatalf("bad pattern exited %d, want 2", code)
	}
}

func TestStaleIgnoresFlag(t *testing.T) {
	const staleCorpus = "./internal/lint/testdata/src/staleignore"
	// Without the flag the stale directive is invisible.
	code, stdout, _ := runVet(t, staleCorpus)
	if code != 0 || stdout != "" {
		t.Fatalf("without -stale-ignores: code=%d stdout=%q", code, stdout)
	}
	// With it, the dead suppression is a finding and fails the run.
	code, stdout, _ = runVet(t, "-stale-ignores", staleCorpus)
	if code != 1 {
		t.Fatalf("-stale-ignores exited %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "stale //lint:ignore floateq") {
		t.Errorf("stdout missing stale-directive report:\n%s", stdout)
	}
	// A directive whose analyzer did not run is not judged stale.
	code, stdout, _ = runVet(t, "-stale-ignores", "-enable", "maporder", staleCorpus)
	if code != 0 || stdout != "" {
		t.Errorf("partial suite judged a directive it could not vindicate: code=%d stdout=%q", code, stdout)
	}
}
