package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/server"
	"spatialsel/internal/telemetry"
)

func rectOf(r [4]float64) geom.Rect { return geom.NewRect(r[0], r[1], r[2], r[3]) }

// serverConfig is sdbd's flag defaults (cmd/sdbd/main.go) with the WAL
// directory set: admission on, telemetry on, workers auto, JSON request
// logging (to a discarded writer, so the formatting cost stays in).
func serverConfig(walDir string, enableTelemetry bool) server.Config {
	const slowQuery = 250 * time.Millisecond
	return server.Config{
		CacheSize:       256,
		RequestTimeout:  30 * time.Second,
		MaxResultRows:   10000,
		Workers:         0,
		WALDir:          walDir,
		Admission:       true,
		AdmissionTarget: slowQuery,
		EnableTelemetry: enableTelemetry,
		Telemetry: telemetry.Options{
			Interval:   10 * time.Second,
			RingSize:   360,
			SlowQuery:  slowQuery,
			FlightRing: 512,
			SampleN:    16,
			Drift:      telemetry.DriftConfig{Threshold: 0.25},
		},
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
}

// env is one set-up system under test: the server, its handler, and the raw
// datasets the oracle reads.
type env struct {
	w      *workload
	srv    *server.Server
	h      http.Handler
	walDir string
	data   map[string]*dataset.Dataset
	gen    generator
	resp   respWriter
	yard   *yardstick
}

// respWriter is the in-process http.ResponseWriter; its buffer is reused
// across ops so the client side allocates next to nothing.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.status = code }
func (w *respWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *respWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.status = http.StatusOK
	w.buf.Reset()
}

// opResult is what one executed op left behind for the verifier.
type opResult struct {
	latency time.Duration
	status  int
	bytes   int
	value   float64 // total_rows, pair_count or est_rows, by op kind
	ok      bool    // value was found in the response
}

var valueKey = map[opKind][]byte{
	opQuery:    []byte(`"total_rows":`),
	opEstPair:  []byte(`"pair_count":`),
	opEstMulti: []byte(`"pair_count":`),
	opExplain:  []byte(`"est_rows":`),
}

// do sends one op through the server's handler and times it.
func (e *env) do(ctx context.Context, o *op) opResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.path, bytes.NewReader(o.body))
	if err != nil {
		return opResult{}
	}
	e.resp.reset()
	start := time.Now()
	e.h.ServeHTTP(&e.resp, req)
	res := opResult{latency: time.Since(start), status: e.resp.status, bytes: e.resp.buf.Len()}
	if key, want := valueKey[o.kind]; want {
		res.value, res.ok = scanNumber(e.resp.buf.Bytes(), key)
	} else {
		res.ok = true
	}
	return res
}

// scanNumber reads the JSON number that follows the last occurrence of key.
func scanNumber(body, key []byte) (float64, bool) {
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	end := bytes.IndexAny(rest, ",}\n")
	if end < 0 {
		end = len(rest)
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// get fetches a GET route's body (used for /metrics, outside timed windows).
func (e *env) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	e.resp.reset()
	e.h.ServeHTTP(&e.resp, req)
	if e.resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, e.resp.status)
	}
	return append([]byte(nil), e.resp.buf.Bytes()...), nil
}

// setUp generates the workload's tables, starts a server on a fresh WAL
// directory, registers the tables and runs the first-touch pass. The
// first-touch results are returned for verification, and the set-up's own
// time (yardstick readings taken out) with its slowdown as a roundStat.
func setUp(ctx context.Context, w *workload, cfg *config, walDir string, yard *yardstick) (*env, []op, []opResult, roundStat, error) {
	fail := func(err error) (*env, []op, []opResult, roundStat, error) {
		return nil, nil, nil, roundStat{}, err
	}
	start := time.Now()
	g := yard.start()
	step := time.Now()
	// A reading is due after each step of the set-up, not inside one.
	stepDone := func() {
		g.after(time.Since(step))
		step = time.Now()
	}
	sym := symmetryOf(cfg.seed)
	e := &env{w: w, walDir: walDir, data: map[string]*dataset.Dataset{},
		resp: respWriter{hdr: http.Header{}}, yard: yard}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return fail(err)
	}
	srv, err := server.New(serverConfig(walDir, true))
	if err != nil {
		return fail(err)
	}
	e.srv, e.h = srv, srv.Handler()
	for _, ts := range w.tables {
		d, err := makeTable(ts.name, ts.scale*cfg.scale, sym)
		if err != nil {
			return fail(err)
		}
		stepDone()
		if _, _, err := srv.Store().Register(d, false); err != nil {
			return fail(err)
		}
		stepDone()
		e.data[ts.name] = d
	}
	e.gen = w.newGen(scriptRNG(cfg.seed, w.name), sym, func(name string) int { return e.data[name].Len() })
	touch := e.gen.touch()
	res := make([]opResult, len(touch))
	for i := range touch {
		res[i] = e.do(ctx, &touch[i])
		stepDone()
	}
	return e, touch, res, roundStat{wall: time.Since(start) - g.spent, slowdown: g.slowdown(), sensitivity: setUpSensitivity}, nil
}

// close releases the server's WAL handles and removes its WAL directory.
func (e *env) close() error {
	err := e.srv.Ingest().Close()
	if rmErr := os.RemoveAll(e.walDir); err == nil {
		err = rmErr
	}
	return err
}

// roundStat is one round's totals: wall and CPU time with the yardstick's
// readings taken out, the round's slowdown and the workload's sensitivity to
// it (see yardstick.go). The methods return times at the reference box's quiet
// speed, that is, divided by slowdown^sensitivity.
type roundStat struct {
	wall        time.Duration
	cpu         time.Duration
	ops         int
	slowdown    float64
	sensitivity float64
}

func (r roundStat) factor() float64     { return math.Pow(r.slowdown, r.sensitivity) }
func (r roundStat) seconds() float64    { return r.wall.Seconds() / r.factor() }
func (r roundStat) opsPerSec() float64  { return float64(r.ops) / r.seconds() }
func (r roundStat) cpuMsPerOp() float64 { return r.cpu.Seconds() * 1e3 / r.factor() / float64(r.ops) }

// millis is a latency measured in the round, at the reference speed.
func (r roundStat) millis(d time.Duration) float64 { return d.Seconds() * 1e3 / r.factor() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MB, less the
// yardstick's buffer, which the benchmark maps and not the server.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - yardResidentMB // Linux reports KB
}

// runRound executes ops in order, one client, closed loop. Maintenance that
// sdbd does on wall-clock tickers runs here at fixed points of the script
// instead: the ingest re-packer after every repackEvery writes (inside the
// round's wall time, not an op), the telemetry scrape once before the round
// (outside it). Between ops the yardstick takes a reading after every
// yardEvery of op time; the readings are timed and taken out of the round's
// wall and CPU time. A non-nil tracer records one span per request and per
// re-pack pass; that bookkeeping is all "tracing on" adds to the loop.
func (e *env) runRound(ctx context.Context, ops []op, res []opResult, tr *tracer) roundStat {
	if t := e.srv.Telemetry(); t != nil {
		t.Tick(time.Now())
	}
	runtime.GC()
	every, writes := e.w.repackEvery, 0
	cpu0, start := cpuTime(), time.Now()
	g := e.yard.start()
	for i := range ops {
		id := tr.begin(spanRequest, i, -1)
		res[i] = e.do(ctx, &ops[i])
		tr.end(id)
		g.after(res[i].latency)
		if ops[i].kind == opWrite && every > 0 {
			if writes++; writes%every == 0 {
				id := tr.begin(spanRepackPass, i, -1)
				e.srv.Ingest().RepackPass(ctx)
				tr.end(id)
			}
		}
	}
	// A reading runs on one thread, so its wall time is its CPU time.
	return roundStat{wall: time.Since(start) - g.spent, cpu: cpuTime() - cpu0 - g.spent, ops: len(ops),
		slowdown: g.slowdown(), sensitivity: e.w.sensitivity}
}

// tailIndex is the index, in n ascending samples, of the highest percentile
// that still has at least ten samples beyond it; below 21 samples there is
// no such percentile above the median and the maximum stands in.
func tailIndex(n int) int {
	if n < 21 {
		return n - 1
	}
	return n - 11
}

// latencyStats returns the median and tail of the samples (milliseconds), and
// the tail's rank as a fraction of the sample count.
func latencyStats(samples []float64) (p50, tail, rank float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ti := tailIndex(len(s))
	return s[(len(s)-1)/2], s[ti], float64(ti+1) / float64(len(s))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
