// Package obs is the observability substrate of the hyper stack: a
// dependency-free span tracer carried through context.Context, a per-process
// ring buffer of finished traces, and a small metrics registry (counters,
// gauges, fixed-bucket histograms) with Prometheus text exposition.
//
// Tracing follows the same contract as the engine's other execution-only
// knobs (Options.Shards, Options.Progress): it rides the context, never the
// cache identity, so a traced evaluation returns bit-identical results to an
// untraced one. When no span is in the context every instrumentation point
// is a single nil check — the package must stay cheap enough that always-on
// request tracing is lost in the noise of a cold what-if (the benchmark's
// traced run reports it as obs.trace_overhead_pct).
//
// The span tree is deliberately tiny: names, wall-clock durations, and a
// flat attribute bag per span. Cross-process traces are stitched by value:
// a coordinator stamps its trace id into the X-Hyper-Trace-Id request
// header, the worker returns its span tree in the response body, and the
// coordinator grafts that subtree under the dispatching span. Remote start
// timestamps are the remote process's clock — durations, not absolute
// times, are the authoritative signal in a grafted subtree.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceIDHeader is the HTTP header carrying a trace id across processes.
// Its presence on a dist request asks the receiving worker to trace the
// work and return the span tree in its response; the value ties the remote
// record back to the coordinator-side trace.
const TraceIDHeader = "X-Hyper-Trace-Id"

// Span is one timed node in a trace tree. All methods are nil-safe: code
// can instrument unconditionally and pay only a pointer check when tracing
// is off. Children may be added concurrently (shard workers and parallel
// fits share a parent span).
type Span struct {
	name  string
	start time.Time
	dur   time.Duration // set by End (or fixed when grafted)

	mu       sync.Mutex
	attrs    []attr
	children []*Span
}

type attr struct {
	key string
	val any // string, bool, int64, or float64
}

// Start opens a child span under the span carried by ctx and returns a
// derived context carrying the new span. When ctx carries no span it
// returns (ctx, nil) — the nil span's methods all no-op, so call sites need
// no branching.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.childAt(name, time.Now())
	return ContextWithSpan(ctx, sp), sp
}

type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil when ctx is untraced.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

type traceIDKey struct{}

// ContextWithTraceID stamps the owning trace's id into the context so
// transports (dist) can propagate it in request headers.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFromContext returns the trace id carried by ctx ("" when none).
func TraceIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// childAt appends a new child with an explicit start time.
func (s *Span) childAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: at}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildAt opens a child with an explicit start time; used for intervals
// observed after the fact (job queue wait: submitted -> started).
func (s *Span) ChildAt(name string, at time.Time) *Span {
	return s.childAt(name, at)
}

// End closes the span, fixing its duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
}

// EndAt closes the span at an explicit instant.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.dur = at.Sub(s.start)
}

// Set records a key/value attribute on the span. Accepted value kinds are
// string, bool, ints and floats; other types are stored via fmt.Sprint.
func (s *Span) Set(key string, val any) {
	if s == nil {
		return
	}
	switch v := val.(type) {
	case string, bool, int64, float64:
	case int:
		val = int64(v)
	case int32:
		val = int64(v)
	case uint64:
		val = int64(v)
	case time.Duration:
		val = float64(v) / float64(time.Millisecond)
	default:
		val = fmt.Sprint(val)
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, val: val})
	s.mu.Unlock()
}

// Graft attaches a rendered span tree (typically decoded from a worker
// response) as a child subtree. Start times inside sj are kept verbatim —
// they are the remote clock — and durations are trusted as recorded.
func (s *Span) Graft(sj *SpanJSON) {
	if s == nil || sj == nil {
		return
	}
	c := spanFromJSON(sj)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

func spanFromJSON(sj *SpanJSON) *Span {
	c := &Span{
		name:  sj.Name,
		start: time.UnixMicro(sj.StartUnixUs),
		dur:   time.Duration(sj.DurMs * float64(time.Millisecond)),
	}
	for _, k := range sortedKeys(sj.Attrs) {
		c.attrs = append(c.attrs, attr{key: k, val: sj.Attrs[k]})
	}
	for _, ch := range sj.Children {
		c.children = append(c.children, spanFromJSON(ch))
	}
	return c
}

// SpanJSON is the wire form of a span tree: what /v1/traces serves, what
// ?trace=1 inlines into query responses, and what dist workers return in
// partial responses.
type SpanJSON struct {
	Name        string         `json:"name"`
	StartUnixUs int64          `json:"start_unix_us"`
	DurMs       float64        `json:"dur_ms"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Children    []*SpanJSON    `json:"children,omitempty"`
}

// JSON renders the span subtree. Children appear in creation order;
// concurrent children (parallel fits, worker dispatches) therefore appear
// in scheduling order — consumers that need a stable shape should sort by
// name (see Skeleton).
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sj := &SpanJSON{
		Name:        s.name,
		StartUnixUs: s.start.UnixMicro(),
		DurMs:       float64(s.dur) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		sj.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			sj.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		sj.Children = append(sj.Children, c.JSON())
	}
	return sj
}

// Trace is a root span plus identity. One trace covers one request (or one
// job run); finished traces are published to a Recorder ring.
type Trace struct {
	ID   string
	Name string
	root *Span
}

// traceSeq disambiguates ids within a process; idPrefix disambiguates
// across processes (workers and coordinator record under the same scheme).
var (
	traceSeq atomic.Uint64
	idPrefix = func() string {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00ff00ff00ff"
		}
		return hex.EncodeToString(b[:])
	}()
)

// NewTrace opens a trace with a fresh process-unique id and a running root
// span named name.
func NewTrace(name string) *Trace {
	return NewTraceWithID(fmt.Sprintf("%s-%06x", idPrefix, traceSeq.Add(1)), name)
}

// NewTraceWithID opens a trace under an externally assigned id (the dist
// worker path: the coordinator owns the id, the worker records under it).
func NewTraceWithID(id, name string) *Trace {
	return &Trace{ID: id, Name: name, root: &Span{name: name, start: time.Now()}}
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// Context derives a context carrying the trace's root span and id — the
// single call a request handler needs before invoking traced work.
func (t *Trace) Context(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return ContextWithTraceID(ContextWithSpan(ctx, t.root), t.ID)
}

// Skeleton renders the shape of a span tree as "name(child,child,...)"
// with children sorted lexicographically at every level. Durations, attrs
// and sibling scheduling order are erased, so two evaluations of the same
// query produce the same skeleton at any shard fan-out — the property the
// trace golden tests pin down.
func Skeleton(sj *SpanJSON) string {
	if sj == nil {
		return ""
	}
	if len(sj.Children) == 0 {
		return sj.Name
	}
	parts := make([]string, len(sj.Children))
	for i, c := range sj.Children {
		parts[i] = Skeleton(c)
	}
	sort.Strings(parts)
	return sj.Name + "(" + strings.Join(parts, ",") + ")"
}

func sortedKeys(m map[string]any) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
