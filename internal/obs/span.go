package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one node of a hierarchical trace: a named, timed region with
// numeric and string attributes and child spans. All methods are safe on a
// nil receiver — instrumented code calls them unconditionally and pays
// nothing (beyond the nil check) when tracing is off.
//
// Spans are created either by NewTrace (the root, installed by whoever owns
// the request) or by StartSpan/Child under an existing span. StartSpan on a
// context without an active trace returns a nil span and allocates nothing:
// that is the hot path's fast exit.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	elapsed  time.Duration
	ended    bool
	nums     []numAttr
	strs     []strAttr
	children []*Span
}

type numAttr struct {
	key string
	val float64
}

type strAttr struct {
	key, val string
}

type spanCtxKey struct{}

// NewTrace creates a root span named name and installs it in the returned
// context; every StartSpan below that context will record into the tree.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// SpanFrom returns the context's active span, or nil when no trace is
// installed.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan opens a child span under the context's active span. When the
// context carries no trace it returns the context unchanged and a nil span,
// without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// Child creates and attaches a child span. Nil-safe: returns nil on a nil
// receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. Later Ends are ignored, so deferred and
// explicit Ends can coexist.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.elapsed = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Set records (or overwrites) a numeric attribute.
func (s *Span) Set(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.nums {
		if s.nums[i].key == key {
			s.nums[i].val = v
			return
		}
	}
	s.nums = append(s.nums, numAttr{key, v})
}

// Add accumulates into a numeric attribute, creating it at v.
func (s *Span) Add(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.nums {
		if s.nums[i].key == key {
			s.nums[i].val += v
			return
		}
	}
	s.nums = append(s.nums, numAttr{key, v})
}

// SetStr records (or overwrites) a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.strs {
		if s.strs[i].key == key {
			s.strs[i].val = v
			return
		}
	}
	s.strs = append(s.strs, strAttr{key, v})
}

// ---- reports -----------------------------------------------------------

// SpanReport is the serializable form of a finished span tree, the payload
// of EXPLAIN ANALYZE responses.
type SpanReport struct {
	Name          string         `json:"name"`
	ElapsedMicros int64          `json:"elapsed_micros"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Children      []*SpanReport  `json:"children,omitempty"`
}

// Report snapshots the span tree. Unended spans report elapsed time up to
// now. Nil-safe: returns nil.
func (s *Span) Report() *SpanReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.elapsed
	if !s.ended {
		el = time.Since(s.start)
	}
	r := &SpanReport{Name: s.name, ElapsedMicros: el.Microseconds()}
	if len(s.nums)+len(s.strs) > 0 {
		r.Attrs = make(map[string]any, len(s.nums)+len(s.strs))
		for _, a := range s.nums {
			r.Attrs[a.key] = a.val
		}
		for _, a := range s.strs {
			r.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		//lint:ignore lockorder parent-before-child is the documented instance order: spans form a tree, a child never locks its ancestor
		r.Children = append(r.Children, c.Report())
	}
	return r
}

// Text renders the report as an indented tree, EXPLAIN ANALYZE style:
//
//	query (1.24ms)
//	  join roads ⋈ lakes (1.10ms) est_rows=812 rows=790 rel_error=0.028
//	    rtree.join (1.02ms) node_visits=180 output_pairs=790
//
// Attributes print sorted by key so output is deterministic.
func (r *SpanReport) Text() string {
	var b strings.Builder
	r.writeText(&b, 0)
	return b.String()
}

func (r *SpanReport) writeText(b *strings.Builder, depth int) {
	if r == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (%.2fms)", r.Name, float64(r.ElapsedMicros)/1000)
	keys := make([]string, 0, len(r.Attrs))
	for k := range r.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := r.Attrs[k].(type) {
		case float64:
			fmt.Fprintf(b, " %s=%g", k, v)
		default:
			fmt.Fprintf(b, " %s=%v", k, v)
		}
	}
	b.WriteByte('\n')
	for _, c := range r.Children {
		c.writeText(b, depth+1)
	}
}

// ---- trace IDs ---------------------------------------------------------

var traceRNG = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rand.New(rand.NewSource(time.Now().UnixNano()))}

// NewTraceID returns a 16-hex-character request identifier. Uniqueness is
// best-effort (log correlation, not security).
func NewTraceID() string {
	var buf [8]byte
	traceRNG.Lock()
	traceRNG.Read(buf[:])
	traceRNG.Unlock()
	return hex.EncodeToString(buf[:])
}
