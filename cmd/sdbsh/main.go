// Command sdbsh is an interactive shell for the miniature spatial database,
// exercising the paper's full pipeline from a prompt: create tables from
// generators or files, inspect optimizer statistics, explain join plans,
// and execute multi-way spatial joins.
//
//	$ go run ./cmd/sdbsh
//	sdb> create roads polyline 50000 7
//	sdb> create streams polyline 10000 8
//	sdb> estimate join roads streams
//	sdb> query roads,streams on roads~streams
//
// The shell reads one command per line; `help` lists the grammar. It is
// deliberately tiny — the library is the product, the shell is the demo.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/sdb"
)

func main() {
	// When stdin is a pipe or file (CI smoke tests, `sdbsh < script`), run
	// strictly: the first malformed or failing command aborts the session
	// with a non-zero exit instead of being silently skipped. Interactive
	// use keeps the forgiving report-and-continue loop.
	strict := false
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		strict = true
	}
	if !strict {
		fmt.Println("sdbsh — spatial mini-database shell (type `help`)")
	}
	sh := newShell(sdb.NewCatalog())
	sh.strict = strict
	if err := sh.repl(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdbsh: aborting on error:", err)
		os.Exit(1)
	}
}

// shell holds the session state.
type shell struct {
	catalog *sdb.Catalog
	// strict aborts the REPL on the first command error (script mode)
	// instead of reporting and continuing (interactive mode).
	strict bool
}

func newShell(c *sdb.Catalog) *shell { return &shell{catalog: c} }

// repl reads commands until EOF or `quit`. In strict mode it returns the
// first command error; otherwise it always returns nil.
func (s *shell) repl(in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "sdb> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return nil
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := s.exec(line, out); err != nil {
			fmt.Fprintln(out, "error:", err)
			if s.strict {
				return err
			}
		}
	}
}

// exec dispatches one command line.
func (s *shell) exec(line string, out io.Writer) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprint(out, helpText)
		return nil
	case "tables":
		for _, name := range s.catalog.Names() {
			t, err := s.catalog.Table(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-16s %8d items, R-tree height %d, stats GH(h=%d)\n",
				name, t.Len(), t.Packed.Height(), s.catalog.StatisticsLevelUsed())
		}
		return nil
	case "create":
		return s.cmdCreate(fields[1:], out)
	case "open":
		return s.cmdOpen(fields[1:], out)
	case "drop":
		if len(fields) != 2 {
			return fmt.Errorf("usage: drop <table>")
		}
		if !s.catalog.Drop(fields[1]) {
			return fmt.Errorf("no table %q", fields[1])
		}
		fmt.Fprintf(out, "dropped %s\n", fields[1])
		return nil
	case "save":
		if len(fields) != 2 {
			return fmt.Errorf("usage: save <dir>")
		}
		if err := s.catalog.Save(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved %d tables to %s\n", len(s.catalog.Names()), fields[1])
		return nil
	case "load":
		if len(fields) != 2 {
			return fmt.Errorf("usage: load <dir>")
		}
		c, err := sdb.Load(fields[1], s.catalog.StatisticsLevelUsed())
		if err != nil {
			return err
		}
		s.catalog = c
		fmt.Fprintf(out, "loaded %d tables from %s\n", len(c.Names()), fields[1])
		return nil
	case "estimate":
		return s.cmdEstimate(fields[1:], out)
	case "explain", "query":
		q, err := parseQuery(fields[1:])
		if err != nil {
			return err
		}
		plan, err := s.catalog.Plan(q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, plan.Explain())
		if fields[0] == "explain" {
			return nil
		}
		res, err := plan.Execute()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d rows (%v)\n", res.Len(), res.Columns)
		return nil
	}
	return fmt.Errorf("unknown command %q (try `help`)", fields[0])
}

const helpText = `commands:
  create <name> <kind> <n> <seed>   generate and register a table
                                    kinds: uniform cluster multicluster diagonal
                                           polyline tiling points polygons
  open <name> <file.sds>            register a dataset file as a table
  tables                            list tables
  drop <name>                       remove a table
  save <dir>                        persist all tables
  load <dir>                        replace the catalog with a saved one
  estimate join <a> <b>             predicted join size from statistics
  estimate range <t> x0,y0,x1,y1    predicted window-query cardinality
  explain <t1,t2,...> on a~b c~d [window <t> x0,y0,x1,y1]
                                    show the optimizer's plan
  query   <t1,t2,...> on a~b ...    plan and execute
  quit
`

func (s *shell) cmdCreate(args []string, out io.Writer) error {
	if len(args) != 4 {
		return fmt.Errorf("usage: create <name> <kind> <n> <seed>")
	}
	name, kind := args[0], args[1]
	n, err := strconv.Atoi(args[2])
	if err != nil || n <= 0 {
		return fmt.Errorf("bad n %q", args[2])
	}
	seed, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return fmt.Errorf("bad seed %q", args[3])
	}
	d, err := datagen.Generate(kind, name, n, datagen.ItemSize, seed)
	if err != nil {
		return err
	}
	if _, err := s.catalog.Create(d); err != nil {
		return err
	}
	fmt.Fprintf(out, "created %s (%d items)\n", name, n)
	return nil
}

func (s *shell) cmdOpen(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: open <name> <file.sds>")
	}
	d, err := dataset.LoadFile(args[1])
	if err != nil {
		return err
	}
	d.Name = args[0]
	if _, err := s.catalog.Create(d); err != nil {
		return err
	}
	fmt.Fprintf(out, "opened %s (%d items)\n", args[0], d.Len())
	return nil
}

func (s *shell) cmdEstimate(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: estimate join|range ...")
	}
	switch args[0] {
	case "join":
		if len(args) != 3 {
			return fmt.Errorf("usage: estimate join <a> <b>")
		}
		size, err := s.catalog.EstimateJoinSize(args[1], args[2])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "est. %s ⋈ %s ≈ %.0f pairs\n", args[1], args[2], size)
		return nil
	case "range":
		if len(args) != 3 {
			return fmt.Errorf("usage: estimate range <table> x0,y0,x1,y1")
		}
		w, err := parseWindow(args[2])
		if err != nil {
			return err
		}
		cnt, err := s.catalog.EstimateRangeCount(args[1], w)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "est. |%s ∩ %v| ≈ %.0f items\n", args[1], w, cnt)
		return nil
	}
	return fmt.Errorf("unknown estimate %q", args[0])
}

// parseQuery parses "t1,t2,t3 on a~b b~c [window t x0,y0,x1,y1]...".
func parseQuery(args []string) (sdb.Query, error) {
	var q sdb.Query
	if len(args) < 3 || args[1] != "on" {
		return q, fmt.Errorf("usage: <t1,t2,...> on a~b [b~c ...] [window <t> <rect>]")
	}
	q.Tables = strings.Split(args[0], ",")
	i := 2
	for ; i < len(args) && args[i] != "window"; i++ {
		parts := strings.SplitN(args[i], "~", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return q, fmt.Errorf("bad predicate %q (want a~b)", args[i])
		}
		q.Predicates = append(q.Predicates, sdb.Predicate{Left: parts[0], Right: parts[1]})
	}
	for i < len(args) {
		if args[i] != "window" || i+2 >= len(args) {
			return q, fmt.Errorf("bad window clause at %q", args[i])
		}
		w, err := parseWindow(args[i+2])
		if err != nil {
			return q, err
		}
		if q.Windows == nil {
			q.Windows = map[string]geom.Rect{}
		}
		q.Windows[args[i+1]] = w
		i += 3
	}
	return q, nil
}

func parseWindow(s string) (geom.Rect, error) {
	var x0, y0, x1, y1 float64
	if _, err := fmt.Sscanf(s, "%f,%f,%f,%f", &x0, &y0, &x1, &y1); err != nil {
		return geom.Rect{}, fmt.Errorf("bad window %q (want x0,y0,x1,y1)", s)
	}
	return geom.NewRect(x0, y0, x1, y1), nil
}
