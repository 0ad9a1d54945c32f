// Command bench is the repository's benchmark: it drives the real sdbd
// request handler in-process with four seeded, paper-scale workloads, checks
// every answer against an independent oracle, and prints end-to-end metrics
// (-trace 0) or per-layer metrics from a traced round (-trace 1) as one JSON
// object on the last line of standard output. See README.md.
//
//	$ bash bench/run.sh -workload join-paper -seed 1
//	$ bash bench/run.sh -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// config is the parsed command line.
type config struct {
	workload  string
	seed      int64
	seconds   int
	rounds    int
	trace     int
	scale     float64
	dir       string
	traceOut  string
	selfcheck bool
	runs      int
}

const (
	// setUps is how often a run sets the system up. setup_s is the median of
	// the set-up times and the last set-up is the one measured: one set-up of
	// the smaller workloads lasts 0.4 s, too short to repeat within its bound.
	setUps       = 3
	minRounds    = 5
	maxRounds    = 30
	tracedRounds = 3 // untraced rounds before the traced one, with -trace 1
)

// timedRounds is how many timed rounds -seconds buys: a workload's round is
// a fixed script that takes about roundSeconds on the 2-core reference box.
// The round count, not a stopwatch, ends the run, so that op counts, published
// generations and the final state repeat exactly.
func timedRounds(seconds int, roundSeconds float64) int {
	n := int(float64(seconds)/roundSeconds + 0.5)
	if n < minRounds {
		n = minRounds
	}
	if n > maxRounds {
		n = maxRounds
	}
	return n
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "", "workload to run: join-paper, estimate-mix, mixed-rw, multiway-window")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the data instance and the op script")
	fs.IntVar(&c.seconds, "seconds", 14, "measuring time; buys seconds/(the workload's round time) timed rounds, at least 5")
	fs.IntVar(&c.rounds, "rounds", 0, "timed rounds, overriding -seconds (0 = derive from -seconds)")
	fs.IntVar(&c.trace, "trace", 0, "0 prints end-to-end metrics, 1 runs a traced round and prints per-layer metrics")
	fs.Float64Var(&c.scale, "scale", 1, "multiplier on every table's cardinality (tests use 0.02)")
	fs.StringVar(&c.dir, "dir", os.TempDir(), "scratch directory for WALs (real fsync); what a run creates there is removed on exit")
	fs.StringVar(&c.traceOut, "trace-out", "", "with -trace 1, write the traced round's spans to this file as JSON")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "run every workload twice over -runs seeds and compare the two passes against the bounds")
	fs.IntVar(&c.runs, "runs", 3, "with -selfcheck, seeds per workload and pass")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.trace != 0 && c.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", c.trace)
	}
	if c.rounds < 0 || c.seconds < 1 || c.scale <= 0 || c.runs < 1 {
		return nil, fmt.Errorf("-rounds may not be negative; -seconds, -scale and -runs must be positive")
	}
	return c, nil
}

// roundLine is how a run reports a timed round on standard error; the
// self-check reads the lines back to fit each workload's sensitivity.
const roundLine = "bench: round %d raw_wall_s=%f slowdown=%f ops_per_s=%f cpu_ms_per_op=%f"

// output is the one JSON object printed last on standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.selfcheck {
		return selfcheck(ctx, cfg, stdout, stderr)
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	// sdbd sizes its pools from GOMAXPROCS; two is what the reference box
	// has, and capping there keeps a larger machine comparable.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	out, err := runWorkload(ctx, cfg, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// gitCommit is the VCS revision stamped into the binary, when it was built
// inside a checkout that has one.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload is one benchmark run: set-up (setUps times), warm-up round,
// timed rounds, with -trace 1 a traced round, then verification.
func runWorkload(ctx context.Context, cfg *config, w *workload, stderr io.Writer) (*output, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var (
		e                   *env
		setupSecs, setupRaw []float64
		ops                 [][]op
		res                 [][]opResult
	)
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	for i := 0; i < setUps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			runtime.GC()
		}
		var touch []op
		var touchRes []opResult
		var st roundStat
		if e, touch, touchRes, st, err = setUp(ctx, w, cfg, filepath.Join(root, fmt.Sprintf("wal-%d", i)), yard); err != nil {
			return nil, err
		}
		setupSecs, setupRaw = append(setupSecs, st.seconds()), append(setupRaw, st.wall.Seconds())
		ops, res = [][]op{touch}, [][]opResult{touchRes}
	}
	defer e.close()

	timed := cfg.rounds
	if timed == 0 {
		timed = timedRounds(cfg.seconds, w.roundSeconds)
	}
	if cfg.trace == 1 && timed > tracedRounds {
		timed = tracedRounds
	}
	var stats []roundStat
	for r := 0; r <= timed; r++ { // round 0 warms up
		round := e.gen.round(r)
		rres := make([]opResult, len(round))
		st := e.runRound(ctx, round, rres, nil)
		ops, res = append(ops, round), append(res, rres)
		if r > 0 {
			stats = append(stats, st)
		}
	}
	// ops[0] is the first-touch pass and ops[1] the warm-up; timed round i
	// (from 0) is ops[i+2]. Latencies pool over every timed round, each at its
	// own round's slowdown; raw keeps them as the clock read them.
	var pooled, reads, raw, rawWrites []float64
	for k, st := range stats {
		for i, o := range ops[k+2] {
			lat := res[k+2][i].latency
			pooled, raw = append(pooled, st.millis(lat)), append(raw, lat.Seconds()*1e3)
			if o.isRead() {
				reads = append(reads, st.millis(lat))
			} else {
				rawWrites = append(rawWrites, lat.Seconds()*1e3)
			}
		}
	}
	var opsPerSec, cpuMs, rawOpsPerSec, rawCPUMs, slowdowns []float64
	for _, st := range stats {
		opsPerSec, cpuMs = append(opsPerSec, st.opsPerSec()), append(cpuMs, st.cpuMsPerOp())
		rawOpsPerSec = append(rawOpsPerSec, float64(st.ops)/st.wall.Seconds())
		rawCPUMs = append(rawCPUMs, st.cpu.Seconds()*1e3/float64(st.ops))
		slowdowns = append(slowdowns, st.slowdown)
	}

	var metrics map[string]float64
	if cfg.trace == 1 {
		round := e.gen.round(timed + 1)
		rres := make([]opResult, len(round))
		if metrics, err = tracedRound(ctx, e, cfg, round, rres, stats); err != nil {
			return nil, err
		}
		ops, res = append(ops, round), append(res, rres)
	}
	rss := peakRSSMB()

	v, err := verify(ctx, e, ops, res, stderr, cfg.scale >= 1)
	if err != nil {
		return nil, err
	}
	attempted := 0
	for _, r := range ops {
		attempted += len(r)
	}

	opP50, opTail, rank := latencyStats(pooled)
	readP50, readTail, readRank := latencyStats(reads)
	if cfg.trace == 0 {
		metrics = map[string]float64{
			"setup_s":         median(setupSecs),
			"rss_mb":          rss,
			"ops_per_s":       median(opsPerSec),
			"cpu_ms_per_op":   median(cpuMs),
			"op_p50_ms":       opP50,
			"op_tail_ms":      opTail,
			"read_p50_ms":     readP50,
			"read_tail_ms":    readTail,
			"gh_accuracy_min": v.accuracy,
		}
	} else {
		rawP50, rawTail, _ := latencyStats(raw)
		writeP50, _, _ := latencyStats(rawWrites)
		metrics["raw.setup_s"] = median(setupRaw)
		metrics["raw.ops_per_s"] = median(rawOpsPerSec)
		metrics["raw.cpu_ms_per_op"] = median(rawCPUMs)
		metrics["raw.op_p50_ms"] = rawP50
		metrics["raw.op_tail_ms"] = rawTail
		metrics["yardstick.slowdown"] = median(slowdowns)
		metrics["ingest.write_p50_ms"] = writeP50
		metrics["ingest.recover_s"] = v.recoverSec
	}

	fmt.Fprintf(stderr, "bench: %s seed=%d scale=%g rounds=%d setups=%d trace=%d go=%s nproc=%d gomaxprocs=%d commit=%s\n",
		w.name, cfg.seed, cfg.scale, timed, setUps, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gitCommit())
	fmt.Fprintf(stderr, "bench: ops_attempted=%d ops_failed=%d samples=%d tail_rank=p%.2f read_samples=%d read_tail_rank=p%.2f gh_accuracy_min=%.4f\n",
		attempted, v.failed, len(pooled), rank*100, len(reads), readRank*100, v.accuracy)
	for i := range setupRaw {
		fmt.Fprintf(stderr, "bench: set-up %d raw=%.3fs at_reference=%.3fs\n", i+1, setupRaw[i], setupSecs[i])
	}
	for i, st := range stats {
		fmt.Fprintf(stderr, roundLine+"\n", i+1, st.wall.Seconds(), st.slowdown, st.opsPerSec(), st.cpuMsPerOp())
	}
	for _, note := range v.notes {
		fmt.Fprintln(stderr, "bench: FAILED", note)
	}

	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	out := &output{Correct: v.failed == 0, Attempted: attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: metrics[d.Name], Unit: d.Unit}
		fmt.Fprintf(stderr, "bench: %-36s %14.6g %s\n", d.Name, metrics[d.Name], d.Unit)
	}
	return out, nil
}
