package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from current output")

func TestRunAllSmallScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "all", "-scale", "0.002", "-level", "3", "-pair", "SCRC-SURA"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Actual-join statistics", "Figure 6", "Figure 7", "SCRC-SURA"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []string{"stats", "7"} {
		var buf bytes.Buffer
		if err := run([]string{"-fig", fig, "-scale", "0.002", "-level", "2", "-pair", "SP-SPG"}, &buf); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		if buf.Len() == 0 {
			t.Errorf("fig %s produced no output", fig)
		}
	}
}

func TestRunValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "9"}, &buf); err == nil {
		t.Error("bad -fig accepted")
	}
	if err := run([]string{"-fig", "stats", "-scale", "0.002", "-pair", "NOPE"}, &buf); err == nil {
		t.Error("bad -pair accepted")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

// timeColumns are the header names of the columns that hold wall-clock
// times: the join statistics' joinTime, Figure 6's two Est. Times and Figure
// 7's Est. Time and Building Time.
var timeColumns = map[string]bool{
	"joinTime": true, "estTime1%": true, "estTime2%": true, "estTime%": true, "bldTime%": true,
}

// deterministicColumns is out with every time column's cells replaced by "-"
// and each line's fields joined by one space, so what is left depends on the
// generators, the estimators and the R-tree baselines, not on the machine.
func deterministicColumns(out string) string {
	var b strings.Builder
	var drop []bool // the current table's time columns, by field index
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			drop = nil
		}
		header := false
		for _, h := range f {
			header = header || timeColumns[h]
		}
		if header {
			drop = make([]bool, len(f))
			for i, h := range f {
				drop[i] = timeColumns[h]
			}
		} else {
			for i := range f {
				if i < len(drop) && drop[i] {
					f[i] = "-"
				}
			}
		}
		b.WriteString(strings.Join(f, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenDeterministicColumns runs the reproduction at the parameters of
// make experiments (every artifact, scale 0.1, levels up to 9) and compares
// everything but its times with testdata/all_scale0.1.golden: the join
// statistics, every Figure 6 and Figure 7 error and space column and the
// range-query table. A change to a generator, an estimator or the R-tree
// baseline shows up here and has to be stated; go test -update rewrites the
// file.
func TestGoldenDeterministicColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "all", "-scale", "0.1", "-level", "9"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := deterministicColumns(buf.String())
	path := filepath.Join("testdata", "all_scale0.1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
