package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatal("same name+labels must return the same counter")
	}
	g := r.Gauge("g", "help")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	fc := r.FloatCounter("fc_total", "help")
	fc.Add(0.25)
	fc.Add(0.5)
	if fc.Value() != 0.75 {
		t.Fatalf("float counter = %g, want 0.75", fc.Value())
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("req_total", "h", L("route", "/a"))
	b := r.Counter("req_total", "h", L("route", "/b"))
	if a == b {
		t.Fatal("different labels must be different series")
	}
	a.Add(2)
	b.Inc()
	// Label order must not matter.
	a2 := r.Counter("req_total", "h", L("route", "/a"))
	multi := r.Counter("multi_total", "h", L("x", "1"), L("y", "2"))
	multi2 := r.Counter("multi_total", "h", L("y", "2"), L("x", "1"))
	if a2 != a || multi != multi2 {
		t.Fatal("label canonicalization broken")
	}
}

// A label value is escaped the way the Prometheus text format reads it back:
// backslash, double quote and line feed only; a tab, a NUL or a byte that is
// not UTF-8 is written as it is (Go's %q would write \t, \x00 and \xff, which
// the format does not define). Values that need no escaping render as before.
func TestLabelValuesEscapedAsTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("odd_total", "h", L("v", "a\tb\x00c\"d\\e\nf\xffü"), L("k", "x")).Inc()
	r.Counter("plain_total", "h", L("route", "POST /v1/query"), L("code", "200")).Inc()
	r.Histogram("odd_seconds", "h", []float64{1}, L("left", "a\tb")).Observe(0.5)
	out := r.Render()
	for _, want := range []string{
		"odd_total{k=\"x\",v=\"a\tb\x00c\\\"d\\\\e\\nf\xffü\"} 1\n",
		`plain_total{code="200",route="POST /v1/query"} 1` + "\n",
		"odd_seconds_bucket{left=\"a\tb\",le=\"1\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if got := labelKey([]Label{L("b", "2"), L("c", "3"), L("a", `"`)}); got != `{a="\"",b="2",c="3"}` {
		t.Errorf("labelKey = %s", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	out := r.Render()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

// TestRenderDeterministicOrder registers families and series in scrambled
// order and checks the exposition is sorted — the stability /metrics
// scrapers and golden tests rely on.
func TestRenderDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "last").Inc()
	r.Counter("aaa_total", "first").Inc()
	r.Counter("mmm_total", "mid", L("route", "/z")).Inc()
	r.Counter("mmm_total", "mid", L("route", "/a")).Inc()
	r.Gauge("bbb", "gauge").Set(3)

	out := r.Render()
	idx := func(sub string) int {
		i := strings.Index(out, sub)
		if i < 0 {
			t.Fatalf("render missing %q:\n%s", sub, out)
		}
		return i
	}
	if !(idx("aaa_total") < idx("bbb") && idx("bbb") < idx("mmm_total") && idx(`route="/a"`) < idx(`route="/z"`) && idx(`route="/z"`) < idx("zzz_total")) {
		t.Fatalf("render not sorted:\n%s", out)
	}
	if out != r.Render() {
		t.Fatal("render not stable across calls")
	}
}

func TestRenderMerged(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("zz_total", "h").Inc()
	b.Counter("aa_total", "h").Inc()
	out := RenderMerged(a, b)
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Fatalf("merged render not globally sorted:\n%s", out)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.CounterFunc("sampled_total", "h", func() float64 { v++; return v })
	r.GaugeFunc("sampled_gauge", "h", func() float64 { return 7 })
	out := r.Render()
	if !strings.Contains(out, "sampled_total 42") {
		t.Errorf("counter func not sampled:\n%s", out)
	}
	if !strings.Contains(out, "sampled_gauge 7") {
		t.Errorf("gauge func not sampled:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE sampled_total counter") {
		t.Errorf("counter func must render TYPE counter:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h").Add(3)
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["c_total"] != 3 {
		t.Fatalf("snapshot counter = %v", snap["c_total"])
	}
	if snap["h_seconds_count"] != 1 || snap["h_seconds_sum"] != 0.5 {
		t.Fatalf("snapshot histogram = %v / %v", snap["h_seconds_count"], snap["h_seconds_sum"])
	}
}
