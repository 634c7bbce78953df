package obs

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"hyper/internal/httpapi"
)

// TraceJSON is a finished trace in wire form: identity plus the rendered
// span tree. Recorders store this immutable form, so serving a trace is a
// plain encode with no locking against live spans.
type TraceJSON struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	DurMs float64   `json:"dur_ms"`
	Spans int       `json:"spans"`
	Root  *SpanJSON `json:"root,omitempty"`
}

// TraceSummary is the listing form (no span tree).
type TraceSummary struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	DurMs float64   `json:"dur_ms"`
	Spans int       `json:"spans"`
}

// Recorder ring-buffers the most recent finished traces of a process.
// Capacity is fixed at construction, so memory stays constant under
// sustained traffic; the oldest trace is evicted when the ring wraps.
type Recorder struct {
	mu       sync.Mutex
	ring     []*TraceJSON
	next     int
	recorded uint64
}

// TraceRingSize is the per-process trace ring size hyperd and workers use.
const TraceRingSize = 256

// NewRecorder returns a Recorder holding up to capacity (> 0) traces.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{ring: make([]*TraceJSON, 0, capacity)}
}

// Record renders t and publishes it into the ring. The trace must be
// finished (no spans still being appended) — typically called right after
// Trace.Finish.
func (r *Recorder) Record(t *Trace) *TraceJSON {
	if r == nil || t == nil {
		return nil
	}
	root := t.root.JSON()
	tj := &TraceJSON{
		ID:    t.ID,
		Name:  t.Name,
		Start: t.root.start,
		DurMs: root.DurMs,
		Spans: countSpans(root),
		Root:  root,
	}
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, tj)
	} else {
		r.ring[r.next] = tj
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.recorded++
	r.mu.Unlock()
	return tj
}

func countSpans(sj *SpanJSON) int {
	if sj == nil {
		return 0
	}
	n := 1
	for _, c := range sj.Children {
		n += countSpans(c)
	}
	return n
}

// TraceFilter narrows a trace listing: Kind matches the trace name exactly
// ("" matches all), MinMs drops traces faster than the threshold, and Limit
// caps the number returned (0 = all). Newest traces always win the cap.
type TraceFilter struct {
	Kind  string
	MinMs float64
	Limit int
}

// ParseTraceFilter reads the ?kind= / ?min_ms= / ?limit= query parameters,
// returning an error (suitable for a 400) on malformed or negative values.
func ParseTraceFilter(q url.Values) (TraceFilter, error) {
	f := TraceFilter{Kind: q.Get("kind")}
	if raw := q.Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			return f, fmt.Errorf("invalid min_ms %q: want a non-negative number", raw)
		}
		f.MinMs = v
	}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return f, fmt.Errorf("invalid limit %q: want a non-negative integer", raw)
		}
		f.Limit = v
	}
	return f, nil
}

// ListFiltered returns summaries of the buffered traces matching f, newest
// first.
func (r *Recorder) ListFiltered(f TraceFilter) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.ring))
	// The ring is ordered oldest..newest starting at next (once wrapped);
	// walk it backwards so the freshest trace leads.
	for i := 0; i < len(r.ring); i++ {
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
		idx := (r.next + len(r.ring) - 1 - i) % len(r.ring)
		tj := r.ring[idx]
		if f.Kind != "" && tj.Name != f.Kind {
			continue
		}
		if f.MinMs > 0 && tj.DurMs < f.MinMs {
			continue
		}
		out = append(out, TraceSummary{ID: tj.ID, Name: tj.Name, Start: tj.Start, DurMs: tj.DurMs, Spans: tj.Spans})
	}
	return out
}

// Get returns the buffered trace with the given id.
func (r *Recorder) Get(id string) (*TraceJSON, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, tj := range r.ring {
		if tj.ID == id {
			return tj, true
		}
	}
	return nil, false
}

// Recorded returns the number of traces ever recorded (not just buffered).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}

// TraceList is the GET /v1/traces payload (newest first).
type TraceList struct {
	Traces []TraceSummary `json:"traces"`
}

// HandleList serves GET /v1/traces, on the daemon and on its workers: the
// ring's summaries filtered by the optional ?kind=, ?min_ms= and ?limit=
// query parameters (a malformed value is a 400).
func (r *Recorder) HandleList(req *http.Request) (any, error) {
	f, err := ParseTraceFilter(req.URL.Query())
	if err != nil {
		return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
	}
	return &TraceList{Traces: r.ListFiltered(f)}, nil
}

// HandleGet serves GET /v1/traces/{id}: one buffered trace, or a 404.
func (r *Recorder) HandleGet(req *http.Request) (any, error) {
	id := req.PathValue("id")
	if tj, ok := r.Get(id); ok {
		return tj, nil
	}
	r.mu.Lock()
	capacity := cap(r.ring)
	r.mu.Unlock()
	return nil, httpapi.Errorf(http.StatusNotFound, "unknown trace %q (the ring keeps the most recent %d)", id, capacity)
}
