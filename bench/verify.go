package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/geom"
	"spatialsel/internal/histogram"
	"spatialsel/internal/sample"
	"spatialsel/internal/sdb"
	"spatialsel/internal/server"
	"spatialsel/internal/sweep"
)

// oracle recomputes what the server should have answered, with code the
// server's query path does not run: plane sweep for pair counts, a tree
// dynamic programme over sweep pair lists for multi-way counts, an x-sorted
// scan for the live table's per-write deltas. Estimates are compared with a
// direct library call on the final snapshot's statistics.
type oracle struct {
	e       *env
	log     io.Writer // per-pair accuracy lines
	catalog *sdb.Catalog
	level   int

	pairs  map[[2]string]int // exact two-way counts on the final live items
	multi  map[string]int    // multi-way counts by request body
	plans  map[string]float64
	builds map[string]float64

	// mixed-rw: the live table's rectangles by id, its dead ids, and the
	// exact live⋈static count after each write.
	liveRects []geom.Rect
	dead      map[int]bool
	rwCounts  []int
}

func newOracle(e *env, log io.Writer) *oracle {
	return &oracle{
		e:       e,
		log:     log,
		catalog: e.srv.Store().Snapshot().Catalog,
		level:   e.srv.Store().Level(),
		pairs:   map[[2]string]int{},
		multi:   map[string]int{},
		plans:   map[string]float64{},
		builds:  map[string]float64{},
		dead:    map[int]bool{},
	}
}

// items returns a table's live rectangles. Static tables are the generated
// data; the live table is the oracle's own replay of the script's writes.
func (or *oracle) items(name string) []geom.Rect {
	if or.liveRects == nil || name != rwLive {
		return or.e.data[name].Items
	}
	out := make([]geom.Rect, 0, len(or.liveRects)-len(or.dead))
	for id, r := range or.liveRects {
		if !or.dead[id] {
			out = append(out, r)
		}
	}
	return out
}

func sortedPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// pairCount is the exact join cardinality of two tables' final live items.
func (or *oracle) pairCount(a, b string) int {
	k := sortedPair(a, b)
	if n, ok := or.pairs[k]; ok {
		return n
	}
	n := sweep.Count(or.items(k[0]), or.items(k[1]))
	or.pairs[k] = n
	return n
}

// multiCount counts the rows of a windowed multi-way join whose predicate
// graph is a tree: per table, the items inside its window; per predicate, the
// sweep join of the two filtered sets; then, from the leaves up, each item's
// number of consistent extensions is the product over child tables of the
// summed extensions of its join partners.
func (or *oracle) multiCount(o *op) (int, error) {
	if n, ok := or.multi[string(o.body)]; ok {
		return n, nil
	}
	q := o.q
	if len(q.Predicates) != len(q.Tables)-1 {
		return 0, fmt.Errorf("oracle: predicate graph of %s is not a tree", o.class)
	}
	rects := map[string][]geom.Rect{}
	for _, t := range q.Tables {
		items := or.items(t)
		if w, ok := q.Windows[t]; ok {
			win := rectOf(w)
			var in []geom.Rect
			for _, r := range items {
				if r.Intersects(win) {
					in = append(in, r)
				}
			}
			items = in
		}
		rects[t] = items
	}
	var visit func(t, parent string) []int
	visit = func(t, parent string) []int {
		cnt := make([]int, len(rects[t]))
		for i := range cnt {
			cnt[i] = 1
		}
		for _, p := range q.Predicates {
			other := ""
			switch {
			case p[0] == t && p[1] != parent:
				other = p[1]
			case p[1] == t && p[0] != parent:
				other = p[0]
			default:
				continue
			}
			child := visit(other, t)
			sums := make([]int, len(cnt))
			sweep.JoinFunc(rects[t], rects[other], func(a, b int) { sums[a] += child[b] })
			for i := range cnt {
				cnt[i] *= sums[i]
			}
		}
		return cnt
	}
	total := 0
	for _, c := range visit(q.Tables[0], "") {
		total += c
	}
	or.multi[string(o.body)] = total
	return total, nil
}

// planEstimate is the planner's final cardinality estimate for the op's
// query, from a direct sdb.Catalog.Plan on the final snapshot.
func (or *oracle) planEstimate(o *op) (float64, error) {
	if v, ok := or.plans[string(o.body)]; ok {
		return v, nil
	}
	plan, err := or.catalog.Plan(toQuery(o.q))
	if err != nil {
		return 0, err
	}
	v := plan.Steps[len(plan.Steps)-1].EstRows
	or.plans[string(o.body)] = v
	return v, nil
}

func toQuery(q wireQuery) sdb.Query {
	out := sdb.Query{Tables: q.Tables}
	for _, p := range q.Predicates {
		out.Predicates = append(out.Predicates, sdb.Predicate{Left: p[0], Right: p[1]})
	}
	if len(q.Windows) > 0 {
		out.Windows = make(map[string]geom.Rect, len(q.Windows))
		for t, w := range q.Windows {
			out.Windows[t] = rectOf(w)
		}
	}
	return out
}

// technique builds the estimator the server uses for a method name.
func technique(method string, fraction float64, level int) (core.Technique, error) {
	switch method {
	case "gh":
		return histogram.NewGH(level)
	case "basicgh":
		return histogram.NewBasicGH(level)
	case "ph":
		return histogram.NewPH(level)
	case "rs":
		return sample.New(sample.RS, fraction, sample.WithSeed(1))
	case "ss":
		return sample.New(sample.SS, fraction, sample.WithSeed(1))
	}
	return nil, fmt.Errorf("unknown estimation method %q", method)
}

// buildEstimate runs a build-based estimator end to end: both summaries,
// built concurrently as the server does when it has two CPUs, then the
// estimate.
func buildEstimate(t core.Technique, a, b *sdb.Table) (core.Estimate, error) {
	var sa core.Summary
	var ea error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sa, ea = t.Build(a.Data)
	}()
	sb, eb := t.Build(b.Data)
	<-done
	if ea != nil {
		return core.Estimate{}, ea
	}
	if eb != nil {
		return core.Estimate{}, eb
	}
	return t.Estimate(sa, sb)
}

// pairEstimate is the library's answer for a pairwise estimate op on the
// final snapshot.
func (or *oracle) pairEstimate(o *op) (float64, error) {
	key := string(o.body)
	if v, ok := or.builds[key]; ok {
		return v, nil
	}
	// The server canonicalizes the pair by name before estimating.
	k := sortedPair(o.est.Left, o.est.Right)
	a, err := or.catalog.Table(k[0])
	if err != nil {
		return 0, err
	}
	b, err := or.catalog.Table(k[1])
	if err != nil {
		return 0, err
	}
	t, err := technique(o.est.Method, o.est.Fraction, or.level)
	if err != nil {
		return 0, err
	}
	var est core.Estimate
	if o.est.Method == "gh" {
		est, err = t.Estimate(a.Stats, b.Stats)
	} else {
		est, err = buildEstimate(t, a, b)
	}
	if err != nil {
		return 0, err
	}
	or.builds[key] = est.PairCount
	return est.PairCount, nil
}

// xIndex answers "how many of these rectangles intersect q" from a slice
// sorted by MinX: only entries whose MinX lies in [q.MinX − maxWidth, q.MaxX]
// can intersect.
type xIndex struct {
	rects    []geom.Rect
	maxWidth float64
}

func newXIndex(rects []geom.Rect) *xIndex {
	x := &xIndex{rects: append([]geom.Rect(nil), rects...)}
	sort.Slice(x.rects, func(i, j int) bool { return x.rects[i].MinX < x.rects[j].MinX })
	for _, r := range x.rects {
		x.maxWidth = math.Max(x.maxWidth, r.Width())
	}
	return x
}

func (x *xIndex) count(q geom.Rect) int {
	lo := sort.Search(len(x.rects), func(i int) bool { return x.rects[i].MinX >= q.MinX-x.maxWidth })
	n := 0
	for i := lo; i < len(x.rects) && x.rects[i].MinX <= q.MaxX; i++ {
		if x.rects[i].Intersects(q) {
			n++
		}
	}
	return n
}

// replayWrites folds the script's writes, in order, into the oracle's copy
// of the live table and records the exact live⋈static count after each.
func (or *oracle) replayWrites(ops [][]op) {
	or.liveRects = append([]geom.Rect(nil), or.e.data[rwLive].Items...)
	static := newXIndex(or.e.data[rwStatic].Items)
	count := sweep.Count(or.liveRects, or.e.data[rwStatic].Items)
	or.rwCounts = []int{count}
	for _, round := range ops {
		for i := range round {
			o := &round[i]
			if o.kind != opWrite {
				continue
			}
			for _, r := range o.mut.Insert {
				rect := rectOf(r)
				or.liveRects = append(or.liveRects, rect)
				count += static.count(rect)
			}
			for _, id := range o.mut.Delete {
				or.dead[id] = true
				count -= static.count(or.liveRects[id])
			}
			or.rwCounts = append(or.rwCounts, count)
		}
	}
}

func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// ghGate is the paper's claim for GH at level 7: under 5 % relative error.
const ghGate = 0.05

// check compares one executed op with the oracle. The error explains a
// mismatch; nil means the op passed.
func (or *oracle) check(o *op, res opResult) error {
	if res.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", o.class, res.status)
	}
	if !res.ok {
		return fmt.Errorf("%s: response carries no result value", o.class)
	}
	live := or.rwCounts != nil
	switch o.kind {
	case opQuery:
		var want int
		switch {
		case live:
			want = or.rwCounts[o.state]
		case len(o.q.Tables) == 2 && len(o.q.Windows) == 0:
			want = or.pairCount(o.q.Tables[0], o.q.Tables[1])
		default:
			var err error
			if want, err = or.multiCount(o); err != nil {
				return err
			}
		}
		if int(res.value) != want {
			return fmt.Errorf("%s: total_rows %d, oracle %d", o.class, int(res.value), want)
		}
	case opEstPair:
		if live {
			// The statistics that answered are gone; hold the estimate to
			// the paper's accuracy claim against the exact count instead,
			// with three standard deviations of counting noise so that
			// small-scale runs (tens of pairs) are not failed by chance.
			exact := float64(or.rwCounts[o.state])
			if math.Abs(res.value-exact) > ghGate*exact+3*math.Sqrt(exact) {
				return fmt.Errorf("%s: estimate %.0f vs exact %.0f after write %d", o.class, res.value, exact, o.state)
			}
			return nil
		}
		want, err := or.pairEstimate(o)
		if err != nil {
			return err
		}
		if !closeTo(res.value, want, 1e-12) {
			return fmt.Errorf("%s: pair_count %g, library %g", o.class, res.value, want)
		}
	case opEstMulti, opExplain:
		want, err := or.planEstimate(o)
		if err != nil {
			return err
		}
		if !closeTo(res.value, want, 1e-12) {
			return fmt.Errorf("%s: estimate %g, planner %g", o.class, res.value, want)
		}
	}
	return nil
}

// touchedPairs lists every table pair the ops join or estimate, sorted.
func touchedPairs(ops [][]op) [][2]string {
	seen := map[[2]string]bool{}
	for _, round := range ops {
		for i := range round {
			o := &round[i]
			if o.kind == opEstPair {
				seen[sortedPair(o.est.Left, o.est.Right)] = true
			}
			for _, p := range o.q.Predicates {
				seen[sortedPair(p[0], p[1])] = true
			}
		}
	}
	pairs := make([][2]string, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i][0] < pairs[j][0] || pairs[i][0] == pairs[j][0] && pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// ghAccuracyMin is 1 − the largest relative error of the GH estimate against
// the exact join, over every touched pair, on the final published state.
func (or *oracle) ghAccuracyMin(pairs [][2]string) (float64, error) {
	gh, err := histogram.NewGH(or.level)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, p := range pairs {
		a, err := or.catalog.Table(p[0])
		if err != nil {
			return 0, err
		}
		b, err := or.catalog.Table(p[1])
		if err != nil {
			return 0, err
		}
		est, err := gh.Estimate(a.Stats, b.Stats)
		if err != nil {
			return 0, err
		}
		exact := float64(or.pairCount(p[0], p[1]))
		relErr := math.Abs(est.PairCount-exact) / math.Max(1, exact)
		fmt.Fprintf(or.log, "bench: gh %s-%s estimate=%.0f exact=%.0f rel_error=%.4f\n", p[0], p[1], est.PairCount, exact, relErr)
		worst = math.Max(worst, relErr)
	}
	return 1 - worst, nil
}

// verdict is the verification phase's outcome.
type verdict struct {
	failed     int
	notes      []string // first few mismatches, for stderr
	accuracy   float64
	recoverSec float64
}

func (v *verdict) fail(err error) {
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, err.Error())
	}
}

// verify checks every executed op, computes gh_accuracy_min on the final
// state and, for the read-write workload, restarts the server on the same
// WAL directory and checks that nothing acknowledged was lost. With gate set,
// an accuracy below the paper's claim is a failure too; the claim is for
// paper-scale tables, so small-scale test runs do not set it.
func verify(ctx context.Context, e *env, ops [][]op, res [][]opResult, log io.Writer, gate bool) (*verdict, error) {
	or := newOracle(e, log)
	v := &verdict{}
	if e.w.live != "" {
		or.replayWrites(ops)
	}
	for r := range ops {
		for i := range ops[r] {
			o := &ops[r][i]
			// A sampling estimate costs the oracle what it cost the server,
			// and rounds differ only in the sampling fraction: the last round's
			// are recomputed, the others' only checked for a 200 and a value.
			sampling := o.kind == opEstPair && (o.est.Method == "rs" || o.est.Method == "ss")
			if sampling && r != len(ops)-1 && res[r][i].status == http.StatusOK && res[r][i].ok {
				continue
			}
			if err := or.check(o, res[r][i]); err != nil {
				v.fail(fmt.Errorf("round %d op %d: %w", r, i, err))
			}
		}
	}
	var err error
	if v.accuracy, err = or.ghAccuracyMin(touchedPairs(ops)); err != nil {
		return nil, err
	}
	if gate && v.accuracy < 1-ghGate {
		v.fail(fmt.Errorf("gh_accuracy_min %.4f is below the paper's %.2f", v.accuracy, 1-ghGate))
	}
	if or.rwCounts != nil {
		if err := verifyRestart(ctx, e, or, v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// verifyRestart closes the server's WAL handles, starts a fresh server on the
// same WAL directory the way sdbd does (static tables registered, then
// Recover), and checks live count, join count and GH estimate against the
// pre-restart server and the oracle's full recount.
func verifyRestart(ctx context.Context, e *env, or *oracle, v *verdict) error {
	join := queryOp("restart/join", twoWay(rwLive, rwStatic))
	est := estPairOp(rwLive, rwStatic, "gh", 0)
	liveOf := func(srv *server.Server) (int, error) {
		t, err := srv.Store().Snapshot().Catalog.Table(rwLive)
		if err != nil {
			return 0, err
		}
		return t.Index.Len(), nil
	}
	liveBefore, err := liveOf(e.srv)
	if err != nil {
		return err
	}
	joinBefore, estBefore := e.do(ctx, &join), e.do(ctx, &est)
	recount := or.pairCount(rwLive, rwStatic)
	if final := or.rwCounts[len(or.rwCounts)-1]; final != recount {
		v.fail(fmt.Errorf("oracle: incremental count %d, full recount %d", final, recount))
	}
	if int(joinBefore.value) != recount {
		v.fail(fmt.Errorf("final join: total_rows %d, oracle %d", int(joinBefore.value), recount))
	}
	if want := len(or.items(rwLive)); liveBefore != want {
		v.fail(fmt.Errorf("final live count %d, oracle %d", liveBefore, want))
	}

	if err := e.srv.Ingest().Close(); err != nil {
		return err
	}
	start := time.Now()
	srv, err := server.New(serverConfig(e.walDir, true))
	if err != nil {
		return err
	}
	if _, _, err := srv.Store().Register(e.data[rwStatic], false); err != nil {
		return err
	}
	recovered, err := srv.Ingest().Recover()
	if err != nil {
		return fmt.Errorf("wal recovery: %w", err)
	}
	v.recoverSec = time.Since(start).Seconds()
	if len(recovered) != 1 || recovered[0] != rwLive {
		v.fail(fmt.Errorf("restart recovered %v, want [%s]", recovered, rwLive))
		return nil
	}
	e.srv, e.h = srv, srv.Handler()
	liveAfter, err := liveOf(srv)
	if err != nil {
		return err
	}
	joinAfter, estAfter := e.do(ctx, &join), e.do(ctx, &est)
	switch {
	case liveAfter != liveBefore:
		v.fail(fmt.Errorf("restart: live count %d, was %d", liveAfter, liveBefore))
	case joinAfter.status != http.StatusOK || joinAfter.value != joinBefore.value:
		v.fail(fmt.Errorf("restart: join count %v (status %d), was %v", joinAfter.value, joinAfter.status, joinBefore.value))
	case estAfter.status != http.StatusOK || !closeTo(estAfter.value, estBefore.value, 1e-9):
		v.fail(fmt.Errorf("restart: gh estimate %g (status %d), was %g", estAfter.value, estAfter.status, estBefore.value))
	}
	return nil
}
