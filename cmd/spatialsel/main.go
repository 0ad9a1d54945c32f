// Command spatialsel is the library's command-line front end. It generates
// datasets, reports their statistics, runs exact spatial joins, builds
// histogram files, and estimates join selectivities from built summaries —
// the full workflow of the paper, file to file.
//
// Usage:
//
//	spatialsel generate -kind uniform -n 100000 -out sura.sds
//	spatialsel stats -in sura.sds
//	spatialsel join -a scrc.sds -b sura.sds
//	spatialsel build -tech gh -level 7 -in sura.sds -out sura.shf
//	spatialsel estimate -tech gh -level 7 -a scrc.shf -b sura.shf
//	spatialsel sample-estimate -method rswr -frac 0.1 -a scrc.sds -b sura.sds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/sample"
	"spatialsel/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatialsel:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError("")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "join":
		return cmdJoin(args[1:], out)
	case "build":
		return cmdBuild(args[1:], out)
	case "estimate":
		return cmdEstimate(args[1:], out)
	case "sample-estimate":
		return cmdSampleEstimate(args[1:], out)
	case "range-estimate":
		return cmdRangeEstimate(args[1:], out)
	case "help", "-h", "--help":
		printUsage(out)
		return nil
	}
	return usageError(args[0])
}

const subcommands = "generate|stats|join|build|estimate|sample-estimate|range-estimate"

func usageError(cmd string) error {
	if cmd == "" {
		return fmt.Errorf("missing subcommand (%s)", subcommands)
	}
	return fmt.Errorf("unknown subcommand %q (%s)", cmd, subcommands)
}

func printUsage(out io.Writer) {
	fmt.Fprint(out, `spatialsel — spatial-join selectivity estimation toolkit

subcommands:
  generate         generate a synthetic dataset (-kind, -n, -seed, -out)
  stats            print a dataset's summary statistics (-in)
  join             exact spatial join of two datasets (-a, -b)
  build            build a histogram file (-tech, -level, -in, -out)
  estimate         estimate selectivity from two histogram files (-tech, -level, -a, -b)
  sample-estimate  estimate via sampling directly from datasets (-method, -frac, -a, -b)
  range-estimate   estimate a range query's result size from a histogram file (-hist, -window)
`)
}

func cmdRangeEstimate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("range-estimate", flag.ContinueOnError)
	histPath := fs.String("hist", "", "histogram file (SHF1; parametric, PH or GH)")
	window := fs.String("window", "", "query window as x0,y0,x1,y1 in unit-square coordinates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *histPath == "" || *window == "" {
		return fmt.Errorf("range-estimate: -hist and -window are required")
	}
	var x0, y0, x1, y1 float64
	if _, err := fmt.Sscanf(*window, "%f,%f,%f,%f", &x0, &y0, &x1, &y1); err != nil {
		return fmt.Errorf("range-estimate: bad -window %q: %v", *window, err)
	}
	s, err := histogram.LoadSummary(*histPath)
	if err != nil {
		return err
	}
	re, ok := s.(histogram.RangeEstimator)
	if !ok {
		return fmt.Errorf("range-estimate: %T does not support range estimation", s)
	}
	q := geom.NewRect(x0, y0, x1, y1)
	est := re.EstimateRange(q)
	fmt.Fprintf(out, "dataset:       %s (%d items)\n", s.DatasetName(), s.ItemCount())
	fmt.Fprintf(out, "window:        %v\n", q)
	fmt.Fprintf(out, "est. matches:  %.1f\n", est)
	if n := s.ItemCount(); n > 0 {
		fmt.Fprintf(out, "est. sel.:     %.6e\n", est/float64(n))
	}
	return nil
}

func cmdGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	kind := fs.String("kind", "uniform", "uniform|cluster|multicluster|diagonal|polyline|tiling|points|polygons|TS|TCB|CAS|CAR|SP|SPG|SCRC|SURA")
	n := fs.Int("n", 100000, "number of items (ignored for named paper datasets)")
	seed := fs.Int64("seed", 1, "PRNG seed")
	scale := fs.Float64("scale", 1, "scale factor for named paper datasets")
	size := fs.Float64("size", 0.004, "maximum item size (generators that take one)")
	outPath := fs.String("out", "", "output file (SDS1 format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("generate: -out is required")
	}
	var d *dataset.Dataset
	switch k := strings.ToLower(*kind); k {
	case "ts":
		d = datagen.TS(*scale)
	case "tcb":
		d = datagen.TCB(*scale)
	case "cas":
		d = datagen.CAS(*scale)
	case "car":
		d = datagen.CAR(*scale)
	case "sp":
		d = datagen.SP(*scale)
	case "spg":
		d = datagen.SPG(*scale)
	case "scrc":
		d = datagen.SCRC(*scale)
	case "sura":
		d = datagen.SURA(*scale)
	default:
		var err error
		if d, err = datagen.Generate(k, k, *n, *size, *seed); err != nil {
			return fmt.Errorf("generate: %w", err)
		}
	}
	if err := dataset.SaveFile(*outPath, d); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d items\n", *outPath, d.Len())
	return nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "dataset file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	d, err := dataset.LoadFile(*in)
	if err != nil {
		return err
	}
	s := d.ComputeStats()
	fmt.Fprintf(out, "name:       %s\n", d.Name)
	fmt.Fprintf(out, "items:      %d\n", s.N)
	fmt.Fprintf(out, "extent:     %v\n", d.Extent)
	fmt.Fprintf(out, "coverage:   %.6f\n", s.Coverage)
	fmt.Fprintf(out, "avg width:  %.6f\n", s.AvgWidth)
	fmt.Fprintf(out, "avg height: %.6f\n", s.AvgHeight)
	fmt.Fprintf(out, "avg area:   %.8f\n", s.AvgArea)
	fmt.Fprintf(out, "max w/h:    %.6f / %.6f\n", s.MaxWidth, s.MaxHeight)
	return nil
}

func cmdJoin(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("join", flag.ContinueOnError)
	aPath := fs.String("a", "", "left dataset file")
	bPath := fs.String("b", "", "right dataset file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("join: -a and -b are required")
	}
	a, err := dataset.LoadFile(*aPath)
	if err != nil {
		return err
	}
	b, err := dataset.LoadFile(*bPath)
	if err != nil {
		return err
	}
	start := time.Now()
	count := sweep.Count(a.Items, b.Items)
	elapsed := time.Since(start)
	sel := 0.0
	if a.Len() > 0 && b.Len() > 0 {
		sel = float64(count) / (float64(a.Len()) * float64(b.Len()))
	}
	fmt.Fprintf(out, "pairs:       %d\n", count)
	fmt.Fprintf(out, "selectivity: %.6e\n", sel)
	fmt.Fprintf(out, "join time:   %s\n", elapsed)
	return nil
}

// techByName instantiates a histogram technique from CLI flags.
func techByName(name string, level int) (core.Technique, error) {
	switch strings.ToLower(name) {
	case "parametric":
		return histogram.NewParametric(), nil
	case "ph":
		return histogram.NewPH(level)
	case "gh":
		return histogram.NewGH(level)
	case "basicgh":
		return histogram.NewBasicGH(level)
	}
	return nil, fmt.Errorf("unknown technique %q (parametric|ph|gh|basicgh)", name)
}

func cmdBuild(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	tech := fs.String("tech", "gh", "parametric|ph|gh|basicgh")
	level := fs.Int("level", 7, "gridding level h (cells = 4^h)")
	in := fs.String("in", "", "dataset file")
	outPath := fs.String("out", "", "output histogram file (SHF1 format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	d, err := dataset.LoadFile(*in)
	if err != nil {
		return err
	}
	var s core.Summary
	var name string
	start := time.Now()
	if strings.EqualFold(*tech, "euler") {
		// Euler histograms answer range queries only, so they sit outside
		// the join-technique interface.
		e, err := histogram.NewEuler(*level)
		if err != nil {
			return err
		}
		es, err := e.Build(d)
		if err != nil {
			return err
		}
		s, name = es, e.Name()
	} else {
		t, err := techByName(*tech, *level)
		if err != nil {
			return err
		}
		if s, err = t.Build(d); err != nil {
			return err
		}
		name = t.Name()
	}
	elapsed := time.Since(start)
	if err := histogram.SaveSummary(*outPath, s); err != nil {
		return err
	}
	fmt.Fprintf(out, "built %s for %s: %d bytes in %s\n", name, d.Name, s.SizeBytes(), elapsed)
	return nil
}

func cmdEstimate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	tech := fs.String("tech", "gh", "parametric|ph|gh|basicgh")
	level := fs.Int("level", 7, "gridding level used at build time")
	aPath := fs.String("a", "", "left histogram file")
	bPath := fs.String("b", "", "right histogram file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("estimate: -a and -b are required")
	}
	t, err := techByName(*tech, *level)
	if err != nil {
		return err
	}
	sa, err := histogram.LoadSummary(*aPath)
	if err != nil {
		return err
	}
	sb, err := histogram.LoadSummary(*bPath)
	if err != nil {
		return err
	}
	start := time.Now()
	est, err := t.Estimate(sa, sb)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "technique:      %s\n", t.Name())
	fmt.Fprintf(out, "est. pairs:     %.1f\n", est.PairCount)
	fmt.Fprintf(out, "est. sel.:      %.6e\n", est.Selectivity)
	fmt.Fprintf(out, "estimate time:  %s\n", elapsed)
	return nil
}

func cmdSampleEstimate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sample-estimate", flag.ContinueOnError)
	method := fs.String("method", "rswr", "rs|rswr|ss")
	frac := fs.Float64("frac", 0.1, "sampling fraction in (0,1]")
	fracB := fs.Float64("frac-b", 0, "right-side fraction (defaults to -frac)")
	seed := fs.Int64("seed", 1, "PRNG seed for rswr")
	aPath := fs.String("a", "", "left dataset file")
	bPath := fs.String("b", "", "right dataset file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("sample-estimate: -a and -b are required")
	}
	var m sample.Method
	switch strings.ToLower(*method) {
	case "rs":
		m = sample.RS
	case "rswr":
		m = sample.RSWR
	case "ss":
		m = sample.SS
	default:
		return fmt.Errorf("sample-estimate: unknown method %q", *method)
	}
	//lint:ignore floateq an untouched flag is exactly its 0 default; exact sentinel intended
	if *fracB == 0 {
		*fracB = *frac
	}
	asym, err := sample.NewAsymmetric(m, *frac, *fracB, sample.WithSeed(*seed))
	if err != nil {
		return err
	}
	a, err := dataset.LoadFile(*aPath)
	if err != nil {
		return err
	}
	b, err := dataset.LoadFile(*bPath)
	if err != nil {
		return err
	}
	start := time.Now()
	sa, err := asym.Build(a)
	if err != nil {
		return err
	}
	sb, err := asym.BuildRight(b)
	if err != nil {
		return err
	}
	est, err := asym.Estimate(sa, sb)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "technique:     %s\n", asym.Name())
	fmt.Fprintf(out, "est. pairs:    %.1f\n", est.PairCount)
	fmt.Fprintf(out, "est. sel.:     %.6e\n", est.Selectivity)
	fmt.Fprintf(out, "total time:    %s\n", elapsed)
	return nil
}
