package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the benchmark's acceptance procedure uses. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n, m := len(x), len(x)+1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// roundPoint is one timed round of a child run: the logarithms of its raw wall
// time and of its slowdown.
type roundPoint struct{ logWall, logSlowdown float64 }

// fitSensitivity is the least-squares slope of log wall time on log slowdown
// over the groups' rounds, and the correlation. Each group holds the rounds of
// one seed, that is, of one script, and is centred on its own means, so that
// only how the same work slows with the yardstick enters the fit.
func fitSensitivity(groups [][]roundPoint) (slope, corr float64) {
	var sxx, sxy, syy float64
	for _, g := range groups {
		var mx, my float64
		for _, p := range g {
			mx, my = mx+p.logSlowdown/float64(len(g)), my+p.logWall/float64(len(g))
		}
		for _, p := range g {
			dx, dy := p.logSlowdown-mx, p.logWall-my
			sxx, sxy, syy = sxx+dx*dx, sxy+dx*dy, syy+dy*dy
		}
	}
	if sxx == 0 || syy == 0 {
		return 0, 0
	}
	return sxy / sxx, sxy / math.Sqrt(sxx*syy)
}

// runChild runs one workload in a child process, so that peak RSS and heap
// state are the run's own, and parses the result line and the round lines.
func runChild(ctx context.Context, exe string, cfg *config, workload string, seed int64) (*output, []roundPoint, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-rounds", strconv.Itoa(cfg.rounds),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-dir", cfg.dir, "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	var rounds []roundPoint
	for _, line := range bytes.Split(stderr.Bytes(), []byte("\n")) {
		var n int
		var wall, slowdown, opsPerSec, cpuMs float64
		if _, err := fmt.Sscanf(string(line), roundLine, &n, &wall, &slowdown, &opsPerSec, &cpuMs); err == nil {
			rounds = append(rounds, roundPoint{math.Log(wall), math.Log(slowdown)})
		}
	}
	return &out, rounds, nil
}

// selfcheck is the A/A test of the benchmark itself: every workload runs over
// the same -runs seeds in two passes of the same binary, and for each
// workload and end-to-end metric the second pass's median may not be worse
// than the first's by more than the metric's bound, nor may either pass's
// spread across seeds exceed it (set-up time's spread excepted). Counts and
// gh_accuracy_min must repeat exactly per seed. It also prints each workload's
// sensitivity as fitted over all the rounds run, beside the constant in use.
func selfcheck(ctx context.Context, cfg *config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	type key struct{ workload, metric string }
	var values [2]map[key][]float64
	var counts [2]map[string][]int // per workload: attempted ops per seed
	failed := map[string]int{}
	rounds := map[string][][]roundPoint{} // per workload and seed: the rounds of both passes
	for pass := range values {
		values[pass], counts[pass] = map[key][]float64{}, map[string][]int{}
		for _, w := range workloads {
			if pass == 0 {
				rounds[w.name] = make([][]roundPoint, cfg.runs)
			}
			for s := 0; s < cfg.runs; s++ {
				out, pts, err := runChild(ctx, exe, cfg, w.name, cfg.seed+int64(s))
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				rounds[w.name][s] = append(rounds[w.name][s], pts...)
				fmt.Fprintf(stderr, "bench: selfcheck pass %c %s seed %d:", 'A'+pass, w.name, cfg.seed+int64(s))
				for _, d := range endToEnd {
					k := key{w.name, d.Name}
					values[pass][k] = append(values[pass][k], out.Metrics[d.Name].Value)
					fmt.Fprintf(stderr, " %s=%.5g", d.Name, out.Metrics[d.Name].Value)
				}
				fmt.Fprintln(stderr)
				counts[pass][w.name] = append(counts[pass][w.name], out.Attempted)
				failed[w.name] += out.Failed
			}
		}
	}

	breaches := 0
	fmt.Fprintf(stdout, "%-16s %-16s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a, b := median(values[0][k]), median(values[1][k])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(values[0][k]), spread(values[1][k])
			verdict := "ok"
			if worse > d.Bound || d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.1f%% %s\n",
				w.name, d.Name, a, b, worse*100, sa*100, sb*100, d.Bound*100, verdict)
		}
		// Per seed, the op counts and the accuracy are functions of the
		// script alone and must not differ between the passes.
		acc := key{w.name, "gh_accuracy_min"}
		same := fmt.Sprint(counts[0][w.name]) == fmt.Sprint(counts[1][w.name]) &&
			fmt.Sprint(values[0][acc]) == fmt.Sprint(values[1][acc])
		verdict := "ok"
		if !same || failed[w.name] > 0 {
			verdict = "BREACH"
			breaches++
		}
		fmt.Fprintf(stdout, "%-16s op counts and gh_accuracy_min identical per seed: %v, ops_failed: %d %s\n", w.name, same, failed[w.name], verdict)
		slope, corr := fitSensitivity(rounds[w.name])
		fmt.Fprintf(stdout, "%-16s sensitivity in use %.2f, fitted over these rounds %.2f (correlation %.2f)\n", w.name, w.sensitivity, slope, corr)
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: ok")
	return 0
}
