package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runOK executes a subcommand and returns its output, failing on error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

// runErr executes a subcommand expecting failure.
func runErr(t *testing.T, args ...string) error {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	if err == nil {
		t.Fatalf("run(%v) succeeded, want error", args)
	}
	return err
}

func TestUsage(t *testing.T) {
	out := runOK(t, "help")
	for _, want := range []string{"generate", "estimate", "sample-estimate"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage missing %q", want)
		}
	}
	runErr(t)
	runErr(t, "bogus")
}

func TestFullWorkflow(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.sds")
	b := filepath.Join(dir, "b.sds")
	ha := filepath.Join(dir, "a.shf")
	hb := filepath.Join(dir, "b.shf")

	out := runOK(t, "generate", "-kind", "cluster", "-n", "2000", "-seed", "3", "-out", a)
	if !strings.Contains(out, "2000 items") {
		t.Fatalf("generate output: %q", out)
	}
	runOK(t, "generate", "-kind", "uniform", "-n", "2000", "-seed", "4", "-out", b)

	out = runOK(t, "stats", "-in", a)
	for _, want := range []string{"items:      2000", "coverage:", "avg width:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q in %q", want, out)
		}
	}

	out = runOK(t, "join", "-a", a, "-b", b)
	if !strings.Contains(out, "pairs:") || !strings.Contains(out, "selectivity:") {
		t.Fatalf("join output: %q", out)
	}

	runOK(t, "build", "-tech", "gh", "-level", "5", "-in", a, "-out", ha)
	runOK(t, "build", "-tech", "gh", "-level", "5", "-in", b, "-out", hb)
	out = runOK(t, "estimate", "-tech", "gh", "-level", "5", "-a", ha, "-b", hb)
	if !strings.Contains(out, "GH(h=5)") || !strings.Contains(out, "est. sel.:") {
		t.Fatalf("estimate output: %q", out)
	}

	out = runOK(t, "sample-estimate", "-method", "rs", "-frac", "0.5", "-a", a, "-b", b)
	if !strings.Contains(out, "RS(50%/50%)") {
		t.Fatalf("sample-estimate output: %q", out)
	}
}

func TestGenerateAllKinds(t *testing.T) {
	dir := t.TempDir()
	kinds := []string{"uniform", "cluster", "multicluster", "diagonal", "polyline",
		"tiling", "points", "polygons"}
	for _, k := range kinds {
		path := filepath.Join(dir, k+".sds")
		runOK(t, "generate", "-kind", k, "-n", "300", "-out", path)
	}
	// Named paper datasets honour -scale.
	for _, k := range []string{"TS", "TCB", "CAS", "CAR", "SP", "SPG", "SCRC", "SURA"} {
		path := filepath.Join(dir, k+".sds")
		out := runOK(t, "generate", "-kind", k, "-scale", "0.001", "-out", path)
		if !strings.Contains(out, "items") {
			t.Errorf("%s: output %q", k, out)
		}
	}
	runErr(t, "generate", "-kind", "nope", "-out", filepath.Join(dir, "x.sds"))
	runErr(t, "generate", "-kind", "uniform") // missing -out
}

func TestEstimateTechniqueValidation(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.sds")
	runOK(t, "generate", "-kind", "uniform", "-n", "100", "-out", a)
	ha := filepath.Join(dir, "a.shf")
	runOK(t, "build", "-tech", "ph", "-level", "3", "-in", a, "-out", ha)

	// Estimating a PH summary with the GH technique must fail cleanly.
	if err := runErr(t, "estimate", "-tech", "gh", "-level", "3", "-a", ha, "-b", ha); err == nil {
		t.Fatal("mismatched technique accepted")
	}
	// Unknown technique and missing flags fail.
	runErr(t, "build", "-tech", "zzz", "-in", a, "-out", ha)
	runErr(t, "build", "-tech", "gh")
	runErr(t, "estimate", "-tech", "gh")
	runErr(t, "stats")
	runErr(t, "stats", "-in", filepath.Join(dir, "missing.sds"))
	runErr(t, "join", "-a", a)
	runErr(t, "sample-estimate", "-a", a)
	runErr(t, "sample-estimate", "-method", "zzz", "-a", a, "-b", a)
	runErr(t, "sample-estimate", "-method", "rs", "-frac", "7", "-a", a, "-b", a)
}

func TestParametricAndBasicGHPaths(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.sds")
	runOK(t, "generate", "-kind", "uniform", "-n", "500", "-out", a)
	for _, tech := range []string{"parametric", "basicgh"} {
		h := filepath.Join(dir, tech+".shf")
		runOK(t, "build", "-tech", tech, "-level", "3", "-in", a, "-out", h)
		out := runOK(t, "estimate", "-tech", tech, "-level", "3", "-a", h, "-b", h)
		if !strings.Contains(out, "est. pairs:") {
			t.Errorf("%s estimate output: %q", tech, out)
		}
	}
}

func TestRangeEstimate(t *testing.T) {
	dir := t.TempDir()
	d := filepath.Join(dir, "d.sds")
	h := filepath.Join(dir, "d.shf")
	runOK(t, "generate", "-kind", "uniform", "-n", "2000", "-out", d)
	runOK(t, "build", "-tech", "gh", "-level", "5", "-in", d, "-out", h)
	out := runOK(t, "range-estimate", "-hist", h, "-window", "0.2,0.2,0.6,0.6")
	if !strings.Contains(out, "est. matches:") || !strings.Contains(out, "est. sel.:") {
		t.Fatalf("range-estimate output: %q", out)
	}
	// All histogram kinds support ranges except basic GH.
	for _, tech := range []string{"parametric", "ph"} {
		hp := filepath.Join(dir, tech+".shf")
		runOK(t, "build", "-tech", tech, "-level", "4", "-in", d, "-out", hp)
		runOK(t, "range-estimate", "-hist", hp, "-window", "0,0,0.5,0.5")
	}
	hb := filepath.Join(dir, "basic.shf")
	runOK(t, "build", "-tech", "basicgh", "-level", "4", "-in", d, "-out", hb)
	runErr(t, "range-estimate", "-hist", hb, "-window", "0,0,0.5,0.5")
	// Euler histograms build and answer range queries too.
	he := filepath.Join(dir, "euler.shf")
	out = runOK(t, "build", "-tech", "euler", "-level", "4", "-in", d, "-out", he)
	if !strings.Contains(out, "Euler(h=4)") {
		t.Fatalf("euler build output: %q", out)
	}
	runOK(t, "range-estimate", "-hist", he, "-window", "0.25,0.25,0.75,0.75")
	// Validation.
	runErr(t, "range-estimate", "-hist", h)
	runErr(t, "range-estimate", "-window", "0,0,1,1")
	runErr(t, "range-estimate", "-hist", h, "-window", "zero,0,1,1")
	runErr(t, "range-estimate", "-hist", filepath.Join(dir, "missing.shf"), "-window", "0,0,1,1")
}

func TestSampleEstimateAsymmetricFractions(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.sds")
	b := filepath.Join(dir, "b.sds")
	runOK(t, "generate", "-kind", "uniform", "-n", "1000", "-seed", "9", "-out", a)
	runOK(t, "generate", "-kind", "uniform", "-n", "1000", "-seed", "10", "-out", b)
	out := runOK(t, "sample-estimate", "-method", "ss", "-frac", "0.1", "-frac-b", "1", "-a", a, "-b", b)
	if !strings.Contains(out, "SS(10%/100%)") {
		t.Fatalf("asymmetric output: %q", out)
	}
}
