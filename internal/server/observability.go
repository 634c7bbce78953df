package server

import (
	"encoding/json"
	"time"

	"hyper"
	"hyper/internal/obs"
)

// registerMetrics bridges state other components own (sessions, jobs, engine
// and plan caches, the trace ring) into the metrics registry as scrape-time
// functions — no double bookkeeping, /v1/stats and /metrics read the same
// state. Names follow the stack's scheme (hyper_ prefix, counters end in
// _total), enforced by Registry.Lint via cmd/metriclint.
func (s *Server) registerMetrics() {
	r := s.metrics
	r.GaugeFunc("hyper_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("hyper_sessions", "Live sessions in the registry.",
		func() float64 { s.mu.RLock(); defer s.mu.RUnlock(); return float64(len(s.sessions)) })
	r.CounterFunc("hyper_session_queries_total", "Queries evaluated across all sessions (live sessions only).",
		func() float64 {
			var n int64
			for _, e := range s.sortedEntries() {
				n += e.queries.Load()
			}
			return float64(n)
		})
	r.CounterFunc("hyper_engine_cache_hits_total", "Engine artifact-cache hits summed over live sessions.",
		func() float64 { return s.sumCaches(func(c hyper.CacheStats) float64 { return float64(c.Hits) }) })
	r.CounterFunc("hyper_engine_cache_misses_total", "Engine artifact-cache misses summed over live sessions.",
		func() float64 { return s.sumCaches(func(c hyper.CacheStats) float64 { return float64(c.Misses) }) })
	r.CounterFunc("hyper_engine_cache_evictions_total", "Engine artifact-cache evictions summed over live sessions.",
		func() float64 { return s.sumCaches(func(c hyper.CacheStats) float64 { return float64(c.Evictions) }) })
	r.GaugeFunc("hyper_engine_cache_entries", "Engine artifact-cache entries summed over live sessions.",
		func() float64 { return s.sumCaches(func(c hyper.CacheStats) float64 { return float64(c.Entries) }) })
	r.CounterFunc("hyper_plan_cache_hits_total", "Compiled-plan cache hits summed over live sessions.",
		func() float64 {
			return s.sumPlanCaches(func(c hyper.PlanCacheStats) float64 { return float64(c.Hits) })
		})
	r.CounterFunc("hyper_plan_cache_misses_total", "Compiled-plan cache misses summed over live sessions.",
		func() float64 {
			return s.sumPlanCaches(func(c hyper.PlanCacheStats) float64 { return float64(c.Misses) })
		})
	r.CounterFunc("hyper_plan_cache_evictions_total", "Compiled plans evicted by the LRU bound, summed over live sessions.",
		func() float64 {
			return s.sumPlanCaches(func(c hyper.PlanCacheStats) float64 { return float64(c.Evictions) })
		})
	r.GaugeFunc("hyper_plan_cache_entries", "Compiled plans cached, summed over live sessions.",
		func() float64 {
			return s.sumPlanCaches(func(c hyper.PlanCacheStats) float64 { return float64(c.Entries) })
		})

	r.GaugeFunc("hyper_jobs_queued", "Jobs waiting in the priority queue.",
		func() float64 { return float64(s.jobs.Stats().Queued) })
	r.GaugeFunc("hyper_jobs_running", "Jobs currently executing.",
		func() float64 { return float64(s.jobs.Stats().Running) })
	r.CounterFunc("hyper_jobs_completed_total", "Jobs that finished successfully.",
		func() float64 { return float64(s.jobs.Stats().Completed) })
	r.CounterFunc("hyper_jobs_failed_total", "Jobs that finished with an error.",
		func() float64 { return float64(s.jobs.Stats().Failed) })
	r.CounterFunc("hyper_jobs_cancelled_total", "Jobs cancelled by clients or session deletion.",
		func() float64 { return float64(s.jobs.Stats().Cancelled) })
	r.CounterFunc("hyper_jobs_expired_total", "Jobs that hit their deadline.",
		func() float64 { return float64(s.jobs.Stats().Expired) })
	r.CounterFunc("hyper_jobs_rejected_total", "Job submissions rejected by admission control.",
		func() float64 { return float64(s.jobs.Stats().Rejected) })

	r.CounterFunc("hyper_traces_recorded_total", "Request traces captured into the trace ring.",
		func() float64 { return float64(s.traces.Recorded()) })

	obs.RegisterRuntimeMetrics(r)
	s.costTuples = r.HistogramVec("hyper_query_cost_tuples",
		"Per-query tuples evaluated, by endpoint (jobs as job:<kind>).",
		obs.CountBuckets, "endpoint")
	s.costShards = r.HistogramVec("hyper_query_cost_shards",
		"Per-query plan shards executed, by endpoint (jobs as job:<kind>).",
		obs.CountBuckets, "endpoint")
	s.planCompile = r.Histogram("hyper_plan_compile_ms",
		"Plan compilation latency in milliseconds (cache misses only; hits skip compilation).",
		obs.LatencyBucketsMs)
}

// sumCaches folds a CacheStats field over every live session.
func (s *Server) sumCaches(f func(hyper.CacheStats) float64) float64 {
	var sum float64
	for _, e := range s.sortedEntries() {
		// The engine cache is shared across a session's whole version chain,
		// so any snapshot's handle reports the session's counters.
		sum += f(e.head().sess.Cache().Stats())
	}
	return sum
}

// sumPlanCaches folds a PlanCacheStats field over every live session.
func (s *Server) sumPlanCaches(f func(hyper.PlanCacheStats) float64) float64 {
	var sum float64
	for _, e := range s.sortedEntries() {
		if pc := e.head().sess.PlanCache(); pc != nil {
			sum += f(pc.Stats())
		}
	}
	return sum
}

// Metrics returns the server's metric registry (scraped at GET /metrics;
// cmd/metriclint instantiates a server to lint exactly this registry).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// attachTrace inlines a rendered trace into a query response when the
// client asked for it with ?trace=1. Only the typed query payloads carry a
// trace field; anything else ignores the ask rather than failing it.
func attachTrace(payload any, tj *obs.TraceJSON) {
	switch p := payload.(type) {
	case *WhatIfResponse:
		p.Trace = tj
	case *HowToResponse:
		p.Trace = tj
	case *ExplainResponse:
		p.Trace = tj
	case *BatchResponse:
		p.Trace = tj
	}
}

// slowQueryLine is the JSON shape of one slow-query log line.
type slowQueryLine struct {
	TS       time.Time `json:"ts"`
	Endpoint string    `json:"endpoint"`
	Ms       float64   `json:"ms"`
	Status   int       `json:"status"`
	TraceID  string    `json:"trace_id"`
	// Session/Kind/Shape identify the query shape (present when the handler
	// stamped one); Cost is the request's full cost vector.
	Session string         `json:"session,omitempty"`
	Kind    string         `json:"kind,omitempty"`
	Shape   string         `json:"shape,omitempty"`
	Cost    *obs.MeterJSON `json:"cost,omitempty"`
}

// logSlowQuery emits one structured line for a traced request that crossed
// the SlowQueryMs threshold. The trace id in the line keys directly into
// GET /v1/traces/{id}, so a slow query found in the log is one lookup away
// from its span tree; the shape fingerprint keys into /v1/usage, and the
// inline cost vector says where the time went without any lookup at all.
func (s *Server) logSlowQuery(endpoint, traceID string, elapsed time.Duration, status int, meter *obs.Meter) {
	s.slow.Inc()
	sl := slowQueryLine{
		TS:       time.Now().UTC(),
		Endpoint: endpoint,
		Ms:       float64(elapsed) / float64(time.Millisecond),
		Status:   status,
		TraceID:  traceID,
	}
	if meter != nil {
		sl.Session, sl.Kind, sl.Shape, _ = meter.Shape()
		sl.Cost = meter.JSON()
	}
	line, err := json.Marshal(sl)
	if err != nil {
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	s.cfg.SlowQueryLog.Write(append(line, '\n'))
}
