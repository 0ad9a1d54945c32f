package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// scriptBytes serializes a workload's first-touch pass and first three rounds
// as the bytes that would go on the wire.
func scriptBytes(w *workload, seed int64) []byte {
	g := w.newGen(scriptRNG(seed, w.name), symmetryOf(seed), func(string) int { return 2000 })
	var buf bytes.Buffer
	emit := func(ops []op) {
		for _, o := range ops {
			buf.WriteString(o.path)
			buf.Write(o.body)
			buf.WriteByte('\n')
		}
	}
	emit(g.touch())
	for r := 0; r < 3; r++ {
		emit(g.round(r))
	}
	return buf.Bytes()
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := scriptBytes(w, 1), scriptBytes(w, 1), scriptBytes(w, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different scripts", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same script", w.name)
		}
	}
}

func TestMixedRWDeletesOnlyLiveIDs(t *testing.T) {
	w, err := workloadByName("mixed-rw")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	g := w.newGen(scriptRNG(7, w.name), symmetryOf(7), func(string) int { return n })
	live := map[int]bool{}
	for i := 0; i < n; i++ {
		live[i] = true
	}
	next := n
	for _, ops := range [][]op{g.touch(), g.round(0), g.round(1)} {
		for _, o := range ops {
			if o.kind != opWrite {
				continue
			}
			for _, id := range o.mut.Delete {
				if !live[id] {
					t.Fatalf("write %d deletes id %d, which is not live", o.state, id)
				}
				delete(live, id)
			}
			for range o.mut.Insert {
				live[next] = true
				next++
			}
		}
	}
	if len(live) != n {
		t.Errorf("live count drifted to %d, want %d", len(live), n)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{21, 100, 357, 11200} {
		if beyond := n - 1 - tailIndex(n); beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", n, beyond)
		}
	}
	if got := tailIndex(20); got != 19 {
		t.Errorf("n=20: tail index %d, want the maximum (19)", got)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // descending: must be sorted first
	}
	p50, tail, rank := latencyStats(samples)
	if p50 != 50 || tail != 90 || rank != 0.9 {
		t.Errorf("latencyStats = %v, %v, %v; want 50, 90, 0.9", p50, tail, rank)
	}
}

func TestTimesAreStatedAtTheReferenceSpeed(t *testing.T) {
	// A round that took 3 s while the yardstick read 1.5 times its reference
	// did 2 s of work at the reference speed, if it slows as the yardstick does.
	st := roundStat{wall: 3 * time.Second, cpu: 6 * time.Second, ops: 100, slowdown: 1.5, sensitivity: 1}
	if got := st.opsPerSec(); math.Abs(got-50) > 1e-9 {
		t.Errorf("opsPerSec = %v, want 50", got)
	}
	if got := st.cpuMsPerOp(); math.Abs(got-40) > 1e-9 {
		t.Errorf("cpuMsPerOp = %v, want 40", got)
	}
	if got := st.millis(30 * time.Millisecond); math.Abs(got-20) > 1e-9 {
		t.Errorf("millis(30ms) = %v, want 20", got)
	}
	// Twice as sensitive, the same round did 3/1.5² s of work.
	st.sensitivity = 2
	if got := st.seconds(); math.Abs(got-3/2.25) > 1e-9 {
		t.Errorf("seconds at sensitivity 2 = %v, want %v", got, 3/2.25)
	}
}

func TestGaugeReadsAfterEveryTenMillisecondsOfWork(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	g := y.start()
	for i := 0; i < 10; i++ {
		g.after(yardEvery / 4) // 2.5 × yardEvery of work: readings after the 4th and the 8th op
	}
	if g.readings != 3 {
		t.Errorf("%d readings, want 3 (one at the start, two after work)", g.readings)
	}
	g.after(time.Second) // one long op is followed by one reading, not a hundred
	if g.readings != 4 {
		t.Errorf("%d readings after a long op, want 4", g.readings)
	}
	if want := g.spent.Seconds() * 1e6 / 4 / yardRefMicros; g.slowdown() != want || want <= 0 {
		t.Errorf("slowdown = %v, want %v", g.slowdown(), want)
	}
}

func TestFitSensitivityRecoversTheSlopeWithinSeeds(t *testing.T) {
	// Two seeds whose scripts differ in cost by a factor of e; within each,
	// wall time goes as slowdown^1.5.
	var groups [][]roundPoint
	for _, base := range []float64{0, 1} {
		var g []roundPoint
		for _, x := range []float64{-0.1, 0, 0.2, 0.3} {
			g = append(g, roundPoint{logWall: base + 1.5*x, logSlowdown: x})
		}
		groups = append(groups, g)
	}
	slope, corr := fitSensitivity(groups)
	if math.Abs(slope-1.5) > 1e-9 || math.Abs(corr-1) > 1e-9 {
		t.Errorf("fitSensitivity = %v, %v; want 1.5, 1", slope, corr)
	}
	// The self-check reads rounds back from the lines a run prints.
	line := fmt.Sprintf(roundLine, 3, 2.5, 1.25, 80.0, 12.5)
	var n int
	var wall, slowdown, opsPerSec, cpuMs float64
	if _, err := fmt.Sscanf(line, roundLine, &n, &wall, &slowdown, &opsPerSec, &cpuMs); err != nil || n != 3 || wall != 2.5 || slowdown != 1.25 {
		t.Errorf("a round line does not read back: %q: %v", line, err)
	}
}

func TestSecondsBuyWholeRounds(t *testing.T) {
	for _, c := range []struct {
		seconds int
		round   float64
		want    int
	}{{16, 2, 8}, {16, 2.8, 6}, {16, 3.8, minRounds}, {1, 2, minRounds}, {60, 1, maxRounds}} {
		if got := timedRounds(c.seconds, c.round); got != c.want {
			t.Errorf("timedRounds(%d, %g) = %d, want %d", c.seconds, c.round, got, c.want)
		}
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "plan", Start: 200, End: 210, Parent: 0}, // replayed later: not nested in time
		{Name: "exec", Start: 300, End: 370, Parent: 0},
		{Name: "kernel", Start: 400, End: 430, Parent: 2},
	}
	want := []time.Duration{20, 10, 40, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	tot := totals(spans)
	if tot["exec"].dur != 70 || tot["exec"].self != 40 || tot["exec"].spans != 1 {
		t.Errorf("totals[exec] = %+v", tot["exec"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSymmetryKeepsIntersections(t *testing.T) {
	a, b := rectOf([4]float64{0.1, 0.2, 0.3, 0.4}), rectOf([4]float64{0.3, 0.1, 0.5, 0.2})
	c := rectOf([4]float64{0.6, 0.6, 0.7, 0.7})
	for seed := int64(0); seed < 8; seed++ {
		s := symmetryOf(seed)
		if !s.rect(a).Valid() || !s.rect(a).Intersects(s.rect(b)) || s.rect(a).Intersects(s.rect(c)) {
			t.Errorf("symmetry %+v changed which rectangles intersect", s)
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, want[i].Name)
			}
			seen[want[i].Name] = true
			if want[i].Better != "lower" && want[i].Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, want[i].Name, want[i].Better)
			}
		}
	}
	sameDefs("end_to_end", b.EndToEnd, endToEnd)
	sameDefs("per_layer", b.PerLayer, perLayer)
}

// TestEveryWorkloadRunsAndPrintsItsMetrics is the smoke run: all four
// workloads at 2 % scale, one timed round, both output modes, with the result
// line checked against the metric tables.
func TestEveryWorkloadRunsAndPrintsItsMetrics(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "5", "-scale", "0.02", "-rounds", "1",
				"-dir", dir, "-trace", []string{"0", "1"}[trace]}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s -trace %d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			last := lines[len(lines)-1]
			var out output
			dec := json.NewDecoder(strings.NewReader(last))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatalf("%s -trace %d: result line: %v\n%s", w.name, trace, err, last)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, out.Correct, out.Attempted, out.Failed, stderr.String())
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s -trace %d: %d metrics printed, want %d", w.name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.Name]
				if n := strings.Count(last, `"`+d.Name+`":`); !ok || n != 1 {
					t.Errorf("%s -trace %d: metric %s printed %d times", w.name, trace, d.Name, n)
				}
				if m.Unit != d.Unit {
					t.Errorf("%s -trace %d: %s has unit %q, want %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (trace == 0 && m.Value <= 0) {
					t.Errorf("%s -trace %d: %s = %v", w.name, trace, d.Name, m.Value)
				}
			}
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("scratch directory not cleaned: %d entries left", len(left))
	}
}
