package server

import (
	"net/http"
	"time"

	"hyper/internal/dist"
	"hyper/internal/jobs"
	"hyper/internal/obs"
)

// statsRecorder is the per-endpoint request accounting, backed by the
// metrics registry: a counter pair plus a fixed-bucket latency histogram
// per endpoint. The histogram replaces the per-endpoint sample ring the
// recorder used to keep — memory is now constant under sustained traffic,
// recording is O(1) with no lock or sort, and /v1/stats quantiles become
// bucket-interpolated estimates (bounded by the bucket resolution) instead
// of exact order statistics over a sliding window.
type statsRecorder struct {
	reqs *obs.Vec[*obs.Counter]
	errs *obs.Vec[*obs.Counter]
	lat  *obs.Vec[*obs.Histogram]
}

func (s *statsRecorder) init(reg *obs.Registry) {
	s.reqs = reg.CounterVec("hyper_requests_total", "HTTP requests served, by endpoint.", "endpoint")
	s.errs = reg.CounterVec("hyper_request_errors_total", "HTTP requests that returned an error, by endpoint.", "endpoint")
	s.lat = reg.HistogramVec("hyper_request_duration_ms", "HTTP request latency in milliseconds, by endpoint.", obs.LatencyBucketsMs, "endpoint")
}

func (s *statsRecorder) record(endpoint string, d time.Duration, failed bool) {
	s.reqs.With(endpoint).Inc()
	if failed {
		s.errs.With(endpoint).Inc()
	}
	s.lat.With(endpoint).Observe(float64(d) / float64(time.Millisecond))
}

// EndpointStats is the wire form of one endpoint's counters. P50Ms/P95Ms
// are histogram estimates (see statsRecorder).
type EndpointStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
}

// snapshot renders every endpoint's stats.
func (s *statsRecorder) snapshot() map[string]EndpointStats {
	out := make(map[string]EndpointStats)
	s.lat.Each(func(values []string, h *obs.Histogram) {
		out[values[0]] = EndpointStats{
			Count: int64(h.Count()),
			P50Ms: h.Quantile(0.50),
			P95Ms: h.Quantile(0.95),
		}
	})
	s.errs.Each(func(values []string, c *obs.Counter) {
		e := out[values[0]]
		e.Errors = int64(c.Value())
		out[values[0]] = e
	})
	return out
}

// StatsResponse is the /v1/stats payload: server uptime, per-endpoint
// latency quantiles (finished jobs as job:<kind>), per-session query counts
// and cache effectiveness, the job-queue gauges (queued, running, terminal
// counters, admission rejections, and queue-wait quantiles), and the shard
// transport's counters.
type StatsResponse struct {
	UptimeS   float64                  `json:"uptime_s"`
	Sessions  []SessionInfo            `json:"sessions"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Jobs      jobs.Stats               `json:"jobs"`
	Dist      DistStats                `json:"dist"`
	Plan      PlanStats                `json:"plan"`
}

// PlanStats is the query-planning section of /v1/stats: plan-cache counters
// summed over live sessions (per-session breakdowns are in each SessionInfo)
// plus compile-latency quantiles from the shared histogram.
type PlanStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Compiles  uint64 `json:"compiles"`
	Entries   int    `json:"entries"`
	// CompileP50Ms/CompileP95Ms are bucket-interpolated estimates over all
	// compilations since the server started.
	CompileP50Ms float64 `json:"compile_p50_ms"`
	CompileP95Ms float64 `json:"compile_p95_ms"`
}

// DistStats is the shard-transport section of /v1/stats: the coordinator
// gauges plus the per-worker registry snapshot.
type DistStats struct {
	dist.Stats
	Workers []dist.WorkerInfo `json:"workers,omitempty"`
}

func (s *Server) handleStats(*http.Request) (any, error) {
	entries := s.sortedEntries()
	resp := &StatsResponse{
		UptimeS:   time.Since(s.start).Seconds(),
		Endpoints: s.stats.snapshot(),
		Sessions:  make([]SessionInfo, len(entries)),
		Jobs:      s.jobs.Stats(),
		Dist:      DistStats{Stats: s.dist.Stats(), Workers: s.dist.WorkerInfos()},
	}
	for i, e := range entries {
		resp.Sessions[i] = e.info()
		p := resp.Sessions[i].Plan
		resp.Plan.Hits += p.Hits
		resp.Plan.Misses += p.Misses
		resp.Plan.Evictions += p.Evictions
		resp.Plan.Compiles += p.Compiles
		resp.Plan.Entries += p.Entries
	}
	resp.Plan.CompileP50Ms = s.planCompile.Quantile(0.50)
	resp.Plan.CompileP95Ms = s.planCompile.Quantile(0.95)
	return resp, nil
}
