package main

import (
	"bytes"
	"strings"
	"testing"
)

// Patterns resolve against the working directory, the package directory
// under go test.
const (
	floateqCorpus = "../../internal/lint/testdata/src/floateq"
	cleanCorpus   = "../../internal/lint/testdata/src/clean"
)

// runVet invokes run with captured streams.
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

// TestRemovedFlagsAreUsageErrors: -list is sdbvet's only flag. The suite
// always runs whole and always reports stale suppressions, so the flags that
// selected analyzers or opted into that report are unknown.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-enable", "floateq", cleanCorpus},
		{"-disable", "floateq", cleanCorpus},
		{"-stale-ignores", cleanCorpus},
	} {
		if code, _, stderr := runVet(t, args...); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%v exited %d, want 2 with an unknown-flag error:\n%s", args, code, stderr)
		}
	}
}

func TestBadPatternIsUsageError(t *testing.T) {
	code, _, _ := runVet(t, "./no/such/dir")
	if code != 2 {
		t.Fatalf("bad pattern exited %d, want 2", code)
	}
}

// TestStaleIgnoresFlag: a directive that suppresses nothing is a finding
// and fails the run; no flag turns the report on or off.
func TestStaleIgnoresFlag(t *testing.T) {
	code, stdout, _ := runVet(t, "../../internal/lint/testdata/src/staleignore")
	if code != 1 {
		t.Fatalf("stale directive exited %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "stale //lint:ignore floateq") {
		t.Errorf("stdout missing stale-directive report:\n%s", stdout)
	}
}
