package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"hyper/internal/obs"
)

// span is one interval the benchmark recorded around a call into the
// program: its name, start and end, the span that caused it (Parent is an
// index into the recorder, -1 for an operation's root) and the operation
// it belongs to.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// spanRecorder keeps the traced pass's spans in memory; they are written
// out once, when the run ends. A nil recorder records nothing, so the
// untraced pass pays one pointer check per call site.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// newOp allocates an operation id.
func (r *spanRecorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// start opens a span and returns its index; end closes it.
func (r *spanRecorder) start(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, StartUs: now, EndUs: now})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Microseconds()
	r.mu.Lock()
	r.spans[id].EndUs = now
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *spanRecorder) timed(op, parent int, name string, fn func()) {
	id := r.start(op, parent, name)
	fn()
	r.end(id)
}

// graft copies a span tree the program itself returned (an obs trace, from
// a traced context or ?trace=1) under parent, so one file holds the
// benchmark's boundaries and the program's own stages. Worker subtrees
// carry the worker's clock; only their durations are meaningful.
func (r *spanRecorder) graft(op, parent int, sj *obs.SpanJSON) {
	if r == nil || sj == nil {
		return
	}
	base := sj.StartUnixUs - r.epoch.UnixMicro()
	r.mu.Lock()
	defer r.mu.Unlock()
	var add func(parent int, s *obs.SpanJSON)
	add = func(parent int, s *obs.SpanJSON) {
		start := s.StartUnixUs - r.epoch.UnixMicro()
		if start < base {
			start = base
		}
		r.spans = append(r.spans, span{
			Name: "obs:" + s.Name, Op: op, Parent: parent,
			StartUs: start, EndUs: start + int64(s.DurMs*1000),
		})
		id := len(r.spans) - 1
		for _, c := range s.Children {
			add(id, c)
		}
	}
	add(parent, sj)
}

// selfTimes returns, per span name, the summed self time in microseconds:
// a span's duration minus the part of its interval its children cover
// (overlapping children, such as parallel shard workers, are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartUs < spans[kids[b]].StartUs })
		covered, edge := int64(0), s.StartUs
		for _, k := range kids {
			lo, hi := spans[k].StartUs, spans[k].EndUs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUs {
				hi = s.EndUs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.EndUs - s.StartUs) - covered
	}
	return out
}

// traceFile is the on-disk form of a traced pass.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Ops      int              `json:"ops"`
	SelfUs   map[string]int64 `json:"self_us"`
	Spans    []span           `json:"spans"`
}

func (r *spanRecorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Ops: r.ops,
		SelfUs: selfTimes(r.spans), Spans: r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
