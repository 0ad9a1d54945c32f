package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// The wire structs below are the benchmark's own copy of the server's JSON
// request shapes: the end-to-end path depends on the wire format, not on the
// server package's request types.
type wireQuery struct {
	Tables     []string              `json:"tables"`
	Predicates [][2]string           `json:"predicates"`
	Windows    map[string][4]float64 `json:"windows,omitempty"`
	Limit      int                   `json:"limit,omitempty"`
}

type wireEstimate struct {
	Left     string  `json:"left,omitempty"`
	Right    string  `json:"right,omitempty"`
	Method   string  `json:"method,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`

	Tables     []string              `json:"tables,omitempty"`
	Predicates [][2]string           `json:"predicates,omitempty"`
	Windows    map[string][4]float64 `json:"windows,omitempty"`
}

type wireBatch struct {
	Insert [][4]float64 `json:"insert,omitempty"`
	Delete []int        `json:"delete,omitempty"`
}

type opKind int

const (
	opQuery    opKind = iota // POST /v1/query
	opEstPair                // POST /v1/estimate, left/right/method
	opEstMulti               // POST /v1/estimate, tables/predicates/windows
	opExplain                // POST /v1/explain
	opWrite                  // POST /v1/tables/{name}/batch
)

// op is one scripted request: the bytes sent, and the structured form the
// oracle and the layer replay read.
type op struct {
	kind  opKind
	class string // latency class, e.g. "join/TS-TCB", "est/gh", "write"
	path  string
	body  []byte

	q     wireQuery    // opQuery, opEstMulti, opExplain
	est   wireEstimate // opEstPair
	mut   wireBatch    // opWrite
	table string       // opWrite: the live table
	state int          // writes applied to the live table before this op
}

func (o *op) isRead() bool { return o.kind != opWrite }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire structs hold only marshalable fields
	}
	return b
}

func queryOp(class string, q wireQuery) op {
	return op{kind: opQuery, class: class, path: "/v1/query", body: mustJSON(q), q: q}
}

func estPairOp(left, right, method string, fraction float64) op {
	e := wireEstimate{Left: left, Right: right, Method: method, Fraction: fraction}
	return op{kind: opEstPair, class: "est/" + method, path: "/v1/estimate", body: mustJSON(e), est: e}
}

func estMultiOp(q wireQuery) op {
	e := wireEstimate{Tables: q.Tables, Predicates: q.Predicates, Windows: q.Windows}
	return op{kind: opEstMulti, class: "est/plan", path: "/v1/estimate", body: mustJSON(e), q: q}
}

func explainOp(q wireQuery) op {
	return op{kind: opExplain, class: "explain", path: "/v1/explain", body: mustJSON(q), q: q}
}

// tableSpec names a paper table and its scale relative to the -scale flag.
type tableSpec struct {
	name  string
	scale float64
}

// workload is one traffic mix. newGen returns a generator whose successive
// calls yield the first-touch pass and then round after round; it carries the
// state (live ids, op ordinals) that makes later rounds depend on earlier
// ones.
type workload struct {
	name   string
	why    string
	tables []tableSpec
	live   string // the table the workload writes to, if any
	// roundSeconds is about what one round takes on the 2-core reference box;
	// -seconds buys seconds/roundSeconds timed rounds.
	roundSeconds float64
	// sensitivity is by how many per cent a round slows when the yardstick
	// slows by 1 %: the slope of log round time on log slowdown over the
	// self-check's rounds, which prints the fit beside this constant.
	sensitivity float64
	// repackEvery calls the ingest re-packer after this many writes, in
	// place of sdbd's wall-clock ticker.
	repackEvery int
	// telemetryOff also runs the traced round against a server without
	// telemetry, for telemetry.overhead_ratio.
	telemetryOff bool
	newGen       func(rng *rand.Rand, sym symmetry, tableLen func(string) int) generator
}

type generator interface {
	touch() []op      // each distinct op shape once
	round(r int) []op // round r's ops; rounds are requested in order 0, 1, 2, …
}

var workloads = []*workload{
	{
		name: "join-paper",
		why:  "full two-way joins over the paper's four pairs: rtree kernels and sdb row materialization do the work, histogram and ingest idle",
		tables: []tableSpec{{"TS", 1}, {"TCB", 1}, {"SP", 1}, {"SPG", 1},
			{"SCRC", 1}, {"SURA", 1}, {"CAS", 0.1}, {"CAR", 0.1}},
		roundSeconds: 2.8, sensitivity: 1.1,
		newGen: newJoinPaper,
	},
	{
		name:         "estimate-mix",
		why:          "optimizer traffic: cached gh estimates, windowed multi-way plans, explain, sampling estimators; no rtree join runs",
		tables:       []tableSpec{{"SCRC", 1}, {"SURA", 1}, {"SP", 1}, {"SPG", 1}},
		roundSeconds: 2.4, sensitivity: 1.0,
		newGen: newEstimateMix, telemetryOff: true,
	},
	{
		name:   "mixed-rw",
		why:    "WAL-backed batches into a live 100k table beside full joins and estimates on it: ingest, publish and pack share rtree and histogram with reads",
		tables: []tableSpec{{"SURA", 1}, {"SCRC", 1}},
		live:   rwLive, repackEvery: rwRepackEvery,
		roundSeconds: 3.8, sensitivity: 1.2,
		newGen: newMixedRW,
	},
	{
		name:         "multiway-window",
		why:          "3- and 4-table chain and star joins with windows at scale 0.2: planner order, index probes and the admission gate's fixed cost dominate",
		tables:       []tableSpec{{"SCRC", 0.2}, {"SURA", 0.2}, {"SP", 0.2}, {"SPG", 0.2}},
		roundSeconds: 2, sensitivity: 1.5,
		newGen: newMultiwayWindow,
	},
}

// setUpSensitivity is the set-ups' sensitivity (see workload.sensitivity),
// one value for all workloads: a set-up is a second or less and takes few
// readings, and the four fits (1.2, 1.2, 0.4, 1.4) are not told apart.
const setUpSensitivity = 1.0

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scriptRNG seeds a workload's generator from the run seed and the workload
// name, so two workloads under one seed do not share a random stream.
func scriptRNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
}

// ---- join-paper ---------------------------------------------------------

// joinPairs are the paper's four evaluated joins with their per-cycle
// weights. Sorted by latency (CAS⋈CAR 11 ms, SCRC⋈SURA 28 ms, SP⋈SPG 43 ms,
// TS⋈TCB 194 ms) the classes cover 30 %, 30 %, 30 % and 10 % of a round, so
// p50 sits two thirds up SCRC⋈SURA, ten points from either neighbour, and the
// tail (p96) inside TS⋈TCB. The issue's 2:6:6:3 put p50 at the 92nd percentile
// of SCRC⋈SURA, 2.9 points below the boundary with SP⋈SPG, against its own
// rule; CAS⋈CAR's weight is 6 for that reason.
var joinPairs = []struct {
	left, right string
	weight      int
}{{"TS", "TCB", 2}, {"SP", "SPG", 6}, {"SCRC", "SURA", 6}, {"CAS", "CAR", 6}}

const joinCyclesPerRound = 3

func twoWay(left, right string) wireQuery {
	return wireQuery{Tables: []string{left, right}, Predicates: [][2]string{{left, right}}, Limit: 1000}
}

// fixedGen serves the same ops every round.
type fixedGen struct{ first, ops []op }

func (g *fixedGen) touch() []op    { return g.first }
func (g *fixedGen) round(int) []op { return g.ops }

func newJoinPaper(rng *rand.Rand, _ symmetry, _ func(string) int) generator {
	g := &fixedGen{}
	var cycle []op
	for _, p := range joinPairs {
		o := queryOp("join/"+p.left+"-"+p.right, twoWay(p.left, p.right))
		g.first = append(g.first, o)
		for i := 0; i < p.weight; i++ {
			cycle = append(cycle, o)
		}
	}
	for c := 0; c < joinCyclesPerRound; c++ {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		g.ops = append(g.ops, cycle...)
	}
	return g
}

// ---- shapes shared by estimate-mix and multiway-window --------------------

var fourTables = []string{"SCRC", "SURA", "SP", "SPG"}

// chain joins ts[0]–ts[1]–…; star joins ts[0] to every other table.
func chain(ts []string) wireQuery {
	q := wireQuery{Tables: ts}
	for i := 1; i < len(ts); i++ {
		q.Predicates = append(q.Predicates, [2]string{ts[i-1], ts[i]})
	}
	return q
}

func star(ts []string) wireQuery {
	q := wireQuery{Tables: ts}
	for _, leaf := range ts[1:] {
		q.Predicates = append(q.Predicates, [2]string{ts[0], leaf})
	}
	return q
}

// offClaim reports the one pair of the four tables the mixes never join or
// estimate directly: GH at level 7 is 6–8 % off on SCRC⋈SP (point data
// against a tight cluster), outside the paper's claim, and gh_accuracy_min
// gates the pairs the mixes do touch.
func offClaim(a, b string) bool { return sortedPair(a, b) == [2]string{"SCRC", "SP"} }

// randomShape picks 3 or 4 of the four tables in random order and joins them
// as a chain or a star, redrawing shapes with an off-claim predicate.
func randomShape(rng *rand.Rand) wireQuery {
	for {
		ts := append([]string(nil), fourTables...)
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		ts = ts[:3+rng.Intn(2)]
		q := chain(ts)
		if rng.Intn(2) == 1 {
			q = star(ts)
		}
		ok := true
		for _, p := range q.Predicates {
			ok = ok && !offClaim(p[0], p[1])
		}
		if ok {
			return q
		}
	}
}

const windowSide = 0.3

// windowAt returns the square window of side windowSide with its low corner
// at (x, y) in the untransformed space, mapped through the symmetry.
func windowAt(sym symmetry, x, y float64) [4]float64 {
	r := sym.rect(rectOf([4]float64{x, y, x + windowSide, y + windowSide}))
	return [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY}
}

// ---- estimate-mix ---------------------------------------------------------

// estimateOpsPerRound is split 35 % cached pairwise gh, 45 % windowed
// multi-way estimates, 10 % explain, and 2.5 % each of ph, basicgh, rs, ss.
// ph and basicgh are keyed by method alone, so after first touch they are
// cache hits like gh (40 % of ops, ~15 µs); the plan-based 55 % come next and
// hold p50 ten points from the boundary; rs and ss (a fresh sampling fraction
// per op, so they always miss) are the slowest 5 % and hold the tail.
const estimateOpsPerRound = 1600

type estimateMixGen struct {
	first, template []op
}

func newEstimateMix(rng *rand.Rand, sym symmetry, _ func(string) int) generator {
	g := &estimateMixGen{}
	randomPair := func() (string, string) {
		for {
			i := rng.Intn(len(fourTables))
			j := (i + 1 + rng.Intn(len(fourTables)-1)) % len(fourTables)
			if !offClaim(fourTables[i], fourTables[j]) {
				return fourTables[i], fourTables[j]
			}
		}
	}
	windowed := func() wireQuery {
		q := randomShape(rng)
		t := q.Tables[rng.Intn(len(q.Tables))]
		q.Windows = map[string][4]float64{t: windowAt(sym, rng.Float64()*(1-windowSide), rng.Float64()*(1-windowSide))}
		return q
	}
	n := estimateOpsPerRound
	for i := 0; i < n*35/100; i++ {
		l, r := randomPair()
		g.template = append(g.template, estPairOp(l, r, "gh", 0))
	}
	for i := 0; i < n*45/100; i++ {
		g.template = append(g.template, estMultiOp(windowed()))
	}
	for i := 0; i < n*10/100; i++ {
		g.template = append(g.template, explainOp(windowed()))
	}
	for _, method := range []string{"ph", "basicgh", "rs", "ss"} {
		for i := 0; i < n*25/1000; i++ {
			l, r := randomPair()
			g.template = append(g.template, estPairOp(l, r, method, 0))
		}
	}
	rng.Shuffle(len(g.template), func(i, j int) { g.template[i], g.template[j] = g.template[j], g.template[i] })

	// First touch: every pair under each cached method, so that no timed
	// round pays a histogram build, plus one op of every other class.
	for i, l := range fourTables {
		for _, r := range fourTables[i+1:] {
			if offClaim(l, r) {
				continue
			}
			for _, method := range []string{"gh", "ph", "basicgh"} {
				g.first = append(g.first, estPairOp(l, r, method, 0))
			}
		}
	}
	g.first = append(g.first, estMultiOp(windowed()), explainOp(windowed()),
		estPairOp("SP", "SPG", "rs", samplingFraction(0)), estPairOp("SCRC", "SURA", "ss", samplingFraction(1)))
	return g
}

// samplingFraction gives the rs/ss op with the given run-wide ordinal its own
// fraction, and with it its own cache key.
func samplingFraction(ordinal int) float64 { return 0.01 + float64(ordinal)*1e-7 }

func (g *estimateMixGen) touch() []op { return g.first }

func (g *estimateMixGen) round(r int) []op {
	ops := append([]op(nil), g.template...)
	for i := range ops {
		if m := ops[i].est.Method; m == "rs" || m == "ss" {
			ops[i] = estPairOp(ops[i].est.Left, ops[i].est.Right, m, samplingFraction(2+r*len(ops)+i))
		}
	}
	return ops
}

// ---- mixed-rw -------------------------------------------------------------

const (
	rwLive, rwStatic  = "SURA", "SCRC"
	rwCyclesPerRound  = 40
	rwRepackEvery     = 20 // writes between two re-pack passes
	rwRecordsPerBatch = 32 // inserts and, separately, deletes: cardinality stays steady
	rwMaxSize         = 0.004
)

// mixedRWGen tracks the live table's ids the way the ingest layer assigns
// them (append-only, never reused), so every scripted delete names a live id.
type mixedRWGen struct {
	rng    *rand.Rand
	live   []int
	nextID int
	writes int
}

func newMixedRW(rng *rand.Rand, _ symmetry, tableLen func(string) int) generator {
	g := &mixedRWGen{rng: rng, nextID: tableLen(rwLive)}
	g.live = make([]int, g.nextID)
	for i := range g.live {
		g.live[i] = i
	}
	return g
}

func (g *mixedRWGen) write() op {
	var m wireBatch
	for i := 0; i < rwRecordsPerBatch; i++ {
		w, h := g.rng.Float64()*rwMaxSize, g.rng.Float64()*rwMaxSize
		x, y := g.rng.Float64()*(1-w), g.rng.Float64()*(1-h)
		m.Insert = append(m.Insert, [4]float64{x, y, x + w, y + h})
	}
	for i := 0; i < rwRecordsPerBatch; i++ {
		k := g.rng.Intn(len(g.live))
		m.Delete = append(m.Delete, g.live[k])
		g.live[k] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
	}
	for i := 0; i < rwRecordsPerBatch; i++ {
		g.live = append(g.live, g.nextID)
		g.nextID++
	}
	o := op{kind: opWrite, class: "write", path: "/v1/tables/" + rwLive + "/batch",
		body: mustJSON(m), mut: m, table: rwLive, state: g.writes}
	g.writes++
	return o
}

// cycle is one write, two full joins and one gh estimate (a cache miss: the
// write bumped the live table's generation). Sorted by latency a round is
// 25 % estimates, 50 % joins, 25 % writes, so p50 sits mid-join and the tail
// inside the writes.
func (g *mixedRWGen) cycle() []op {
	w := g.write()
	join := queryOp("join/"+rwLive+"-"+rwStatic, twoWay(rwLive, rwStatic))
	est := estPairOp(rwLive, rwStatic, "gh", 0)
	join.state, est.state = g.writes, g.writes
	return []op{w, join, join, est}
}

func (g *mixedRWGen) touch() []op {
	ops := g.cycle()
	return []op{ops[0], ops[1], ops[3]}
}

func (g *mixedRWGen) round(int) []op {
	var ops []op
	for c := 0; c < rwCyclesPerRound; c++ {
		ops = append(ops, g.cycle()...)
	}
	return ops
}

// ---- multiway-window --------------------------------------------------------

func newMultiwayWindow(rng *rand.Rand, sym symmetry, _ func(string) int) generator {
	g := &fixedGen{}
	for _, s := range multiwayCatalogue {
		o := queryOp(s.class(), s.query(sym))
		g.first = append(g.first, o)
		for i := 0; i < multiwayRepeats; i++ {
			g.ops = append(g.ops, o)
		}
	}
	rng.Shuffle(len(g.ops), func(i, j int) { g.ops[i], g.ops[j] = g.ops[j], g.ops[i] })
	return g
}

// mwEntry is one catalogued query: a chain or star over the comma-separated
// tables, with a windowSide window on each of the wins tables at (x, y).
type mwEntry struct {
	star   bool
	tables string
	wins   string
	x, y   float64
}

// multiwayCatalogue was picked from a sweep of every chain and star over the
// four tables against a 3×3 grid of window positions at scale 0.2: entries
// return between 900 and 120 000 rows in 3–26 ms, which keeps the planner,
// the extension probes and the post-join window filter in the picture and no
// single op above ~250 k rows. Positions favour the quadrant holding SCRC's
// cluster; elsewhere most shapes return nothing. No entry has an off-claim
// predicate (see offClaim).
var multiwayCatalogue = []mwEntry{
	{false, "SCRC,SURA,SPG", "SCRC", 0.35, 0.65},
	{false, "SCRC,SURA,SPG", "SPG", 0.05, 0.65},
	{false, "SCRC,SURA,SPG", "SURA", 0.35, 0.35},
	{true, "SCRC,SURA,SPG", "SCRC", 0.05, 0.65},
	{true, "SCRC,SURA,SPG", "SPG", 0.35, 0.65},
	{true, "SCRC,SURA,SPG", "SURA", 0.05, 0.35},
	{false, "SCRC,SPG,SP", "SCRC", 0.35, 0.65},
	{false, "SCRC,SPG,SP", "SP", 0.35, 0.35},
	{false, "SCRC,SPG,SP", "SPG", 0.05, 0.35},
	{false, "SCRC,SPG,SURA", "SCRC", 0.05, 0.65},
	{false, "SCRC,SPG,SURA", "SPG", 0.35, 0.35},
	{false, "SCRC,SPG,SURA", "SURA", 0.35, 0.65},
	{false, "SURA,SPG,SP", "SP", 0.05, 0.35},
	{false, "SURA,SPG,SP", "SPG", 0.35, 0.35},
	{false, "SURA,SPG,SP", "SURA", 0.05, 0.35},
	{false, "SCRC,SPG,SURA,SP", "SCRC", 0.35, 0.65},
	{false, "SCRC,SPG,SURA,SP", "SPG", 0.35, 0.65},
	{false, "SCRC,SPG,SP,SURA", "SPG", 0.35, 0.65},
	{false, "SCRC,SPG,SP,SURA", "SURA", 0.35, 0.35},
	{false, "SURA,SCRC,SPG,SP", "SP", 0.35, 0.65},
	{false, "SURA,SCRC,SPG,SP", "SPG", 0.35, 0.35},
	{false, "SURA,SCRC,SPG,SP", "SCRC", 0.05, 0.65},
	{false, "SCRC,SURA,SPG,SP", "SPG", 0.05, 0.65},
	{false, "SCRC,SURA,SPG,SP", "SP", 0.35, 0.35},
	{true, "SPG,SCRC,SURA,SP", "SP", 0.05, 0.35},
	{true, "SPG,SCRC,SURA,SP", "SURA", 0.05, 0.35},
	{true, "SPG,SCRC,SURA,SP", "SCRC", 0.35, 0.05},
	{false, "SCRC,SPG,SURA", "SCRC,SURA", 0.35, 0.65},
	{false, "SURA,SPG,SP", "SURA,SP", 0.05, 0.35},
	{true, "SPG,SCRC,SURA,SP", "SCRC,SURA", 0.05, 0.35},
	{false, "SCRC,SURA,SPG,SP", "SCRC,SPG", 0.35, 0.65},
	{false, "SCRC,SPG,SP", "SCRC,SP", 0.35, 0.65},
}

// multiwayRepeats is how often a round runs each catalogue entry.
const multiwayRepeats = 6

func (m mwEntry) query(sym symmetry) wireQuery {
	q := chain(strings.Split(m.tables, ","))
	if m.star {
		q = star(strings.Split(m.tables, ","))
	}
	q.Limit = 1000
	q.Windows = map[string][4]float64{}
	for _, t := range strings.Split(m.wins, ",") {
		q.Windows[t] = windowAt(sym, m.x, m.y)
	}
	return q
}

func (m mwEntry) class() string {
	kind := "chain"
	if m.star {
		kind = "star"
	}
	return fmt.Sprintf("%s/%s/%s@%g,%g", kind, m.tables, m.wins, m.x, m.y)
}
