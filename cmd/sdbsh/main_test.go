package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/sdb"
)

// script runs commands through the REPL and returns the combined output.
func script(t *testing.T, lines ...string) string {
	t.Helper()
	sh := newShell(sdb.NewCatalog())
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	var out bytes.Buffer
	sh.repl(in, &out)
	return out.String()
}

func TestHelpAndUnknown(t *testing.T) {
	out := script(t, "help", "frobnicate", "quit")
	if !strings.Contains(out, "commands:") {
		t.Error("help text missing")
	}
	if !strings.Contains(out, "unknown command") {
		t.Error("unknown command not reported")
	}
}

func TestCreateTablesAndQuery(t *testing.T) {
	out := script(t,
		"create roads polyline 3000 7",
		"create streams polyline 800 8",
		"tables",
		"estimate join roads streams",
		"estimate range roads 0.1,0.1,0.5,0.5",
		"explain roads,streams on roads~streams",
		"query roads,streams on roads~streams",
		"quit",
	)
	for _, want := range []string{
		"created roads (3000 items)",
		"created streams (800 items)",
		"R-tree height",
		"est. roads ⋈ streams",
		"est. |roads",
		"plan (est. cost",
		"rows ([",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestQueryWithWindow(t *testing.T) {
	out := script(t,
		"create a uniform 2000 1",
		"create b uniform 2000 2",
		"query a,b on a~b window a 0.2,0.2,0.6,0.6",
		"quit",
	)
	if !strings.Contains(out, "window [0.2,0.6]x[0.2,0.6]") {
		t.Errorf("window clause not reflected in plan:\n%s", out)
	}
}

func TestCreateValidation(t *testing.T) {
	out := script(t,
		"create x unknownkind 100 1",
		"create x uniform notanumber 1",
		"create x uniform 100 notanumber",
		"create x uniform",
		"create dup uniform 100 1",
		"create dup uniform 100 1",
		"quit",
	)
	if got := strings.Count(out, "error:"); got != 5 {
		t.Errorf("expected 5 errors, saw %d:\n%s", got, out)
	}
}

func TestDropAndSave(t *testing.T) {
	dir := t.TempDir()
	out := script(t,
		"create a uniform 500 1",
		"save "+dir,
		"drop a",
		"drop a",
		"load "+dir,
		"tables",
		"load /nonexistent-dir",
		"load",
		"quit",
	)
	if !strings.Contains(out, "saved 1 tables") || !strings.Contains(out, "dropped a") {
		t.Errorf("save/drop output:\n%s", out)
	}
	if !strings.Contains(out, "error: no table") {
		t.Errorf("double drop not reported:\n%s", out)
	}
	if !strings.Contains(out, "loaded 1 tables") {
		t.Errorf("load output missing:\n%s", out)
	}
	if got := strings.Count(out, "error:"); got != 3 {
		t.Errorf("expected 3 errors, saw %d:\n%s", got, out)
	}
}

func TestOpenDatasetFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.sds")
	if err := dataset.SaveFile(path, datagen.Uniform("ignored", 700, 0.01, 3)); err != nil {
		t.Fatal(err)
	}
	out := script(t,
		"open mytable "+path,
		"tables",
		"open broken "+filepath.Join(dir, "missing.sds"),
		"open x",
		"quit",
	)
	if !strings.Contains(out, "opened mytable (700 items)") {
		t.Errorf("open output:\n%s", out)
	}
	if !strings.Contains(out, "mytable") {
		t.Errorf("tables output missing renamed table:\n%s", out)
	}
	if got := strings.Count(out, "error:"); got != 2 {
		t.Errorf("expected 2 errors, saw %d:\n%s", got, out)
	}
}

func TestQueryParsing(t *testing.T) {
	out := script(t,
		"create a uniform 200 1",
		"create b uniform 200 2",
		"explain a,b",                       // missing "on"
		"explain a,b on a-b",                // bad predicate
		"explain a,b on a~b window a",       // truncated window
		"explain a,b on a~b window a x,y,z", // bad window coords
		"estimate",
		"estimate what a b",
		"estimate join a",
		"estimate range a",
		"quit",
	)
	if got := strings.Count(out, "error:"); got != 8 {
		t.Errorf("expected 8 parse errors, saw %d:\n%s", got, out)
	}
}

func TestStrictModeAbortsOnFirstError(t *testing.T) {
	sh := newShell(sdb.NewCatalog())
	sh.strict = true
	var out bytes.Buffer
	err := sh.repl(strings.NewReader("create a uniform 200 1\nfrobnicate\ncreate b uniform 200 2\n"), &out)
	if err == nil {
		t.Fatal("strict repl returned nil on malformed command")
	}
	if !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("unexpected error: %v", err)
	}
	if strings.Contains(out.String(), "created b") {
		t.Errorf("strict repl kept executing after the error:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "error:"); got != 1 {
		t.Errorf("expected exactly 1 reported error, saw %d:\n%s", got, out.String())
	}
}

func TestStrictModeCleanScriptSucceeds(t *testing.T) {
	sh := newShell(sdb.NewCatalog())
	sh.strict = true
	var out bytes.Buffer
	err := sh.repl(strings.NewReader("create a uniform 200 1\ntables\nquit\n"), &out)
	if err != nil {
		t.Fatalf("clean script errored: %v", err)
	}
	if !strings.Contains(out.String(), "created a") {
		t.Errorf("script output:\n%s", out.String())
	}
}

func TestEmptyLinesAndEOF(t *testing.T) {
	// Blank lines are skipped; EOF ends the loop without `quit`.
	sh := newShell(sdb.NewCatalog())
	var out bytes.Buffer
	sh.repl(strings.NewReader("\n\n"), &out)
	if !strings.Contains(out.String(), "sdb>") {
		t.Error("prompt not printed")
	}
}
