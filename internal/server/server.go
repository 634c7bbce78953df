// Package server is HypeR's query-serving subsystem: a long-lived HTTP JSON
// API over the hyper public layer, hosting a registry of named sessions
// (generated datasets from internal/dataset or CSV-loaded databases, each
// bound to a causal model and a bounded engine cache) and serving what-if,
// how-to, explain and batched queries concurrently. cmd/hyperd is the
// daemon wrapping it.
//
// Endpoints (all JSON; sessions are the resource, queries and snapshots
// are sub-resources of a session):
//
//	GET    /healthz                           liveness probe
//	GET    /v1/datasets                       named dataset builders available for sessions
//	GET    /v1/sessions                       list live sessions (?limit=, ?after= pagination)
//	POST   /v1/sessions                       create a session from a dataset name or inline CSV
//	GET    /v1/sessions/{name}                describe one session (head version, caches)
//	DELETE /v1/sessions/{name}                drop a session (cancels its jobs)
//	POST   /v1/sessions/{name}/rows           append rows, publishing a new MVCC snapshot version
//	GET    /v1/sessions/{name}/snapshots      list the session's published versions
//	POST   /v1/sessions/{name}/whatif         evaluate one what-if query (snapshot/delta_vs pins)
//	POST   /v1/sessions/{name}/howto          evaluate one how-to query (ip|brute|mincost methods)
//	POST   /v1/sessions/{name}/explain        plan a query without evaluating it
//	POST   /v1/sessions/{name}/batch          evaluate N queries fanned out across a worker pool
//	POST   /v1/jobs                           submit an asynchronous query job (429 when the queue is full)
//	GET    /v1/jobs                           list jobs (?session=, ?state=, ?limit=, ?after=)
//	GET    /v1/jobs/{id}                      poll one job (state, progress, result)
//	DELETE /v1/jobs/{id}                      cancel a job (queued or mid-solve)
//	GET    /v1/stats                          cache/job gauges and per-endpoint latency quantiles
//	GET    /v1/usage                          per-query-shape usage analytics (?limit=, ?after=)
//	GET    /v1/usage/{session}                usage analytics filtered to one session's shapes
//
// Every error, on every route (/dist/v1/* and the mux's own 404/405
// included), is the one JSON envelope of internal/httpapi:
// {"error": ..., "code": ..., "retryable": ...}, and every route reads its
// body under MaxBodyBytes (413 body_too_large past it).
//
// Sessions are independent: each owns a bounded LRU engine cache
// (engine.NewCacheBounded), so repeat queries with shared USE/WHEN/FOR
// clauses skip view materialization and estimator training, and a
// long-lived daemon's memory stays bounded. The underlying hyper.Session is
// safe for concurrent use, so no per-session serialization is needed.
//
// Sessions are MVCC: POST /v1/sessions/{name}/rows appends rows (the only
// mutation — no update or delete), publishing an immutable snapshot version
// per append. Queries pin a version with the snapshot field (0 = head) and
// hold it for their whole evaluation; querying snapshot v is byte-identical
// to querying a fresh session holding v's rows. What-if requests can also
// ask for a cross-version delta with delta_vs.
//
// Expensive queries should go through the job API (internal/jobs): a
// submitted job is queued by priority, bounded by admission control and
// per-session limits, cancellable mid-solve, and observable through
// progress counters — the synchronous endpoints remain for cheap queries
// and compatibility (they honor the request context, so a disconnected
// client stops its evaluation).
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"hyper"
	"hyper/internal/dist"
	"hyper/internal/fault"
	"hyper/internal/httpapi"
	"hyper/internal/jobs"
	"hyper/internal/obs"
)

// Config tunes the server; the zero value is usable.
type Config struct {
	// CacheEntries bounds each session's engine cache (artifacts, not
	// bytes). Default 512; <0 means unbounded.
	CacheEntries int
	// PlanCacheEntries bounds each session's compiled-plan cache, in plans
	// (the column data plans read is memoized on the relation, not here).
	// Default 256; <0 means unbounded; a session's plan cache is dropped with
	// the session, so a schema can never outlive its plans.
	PlanCacheEntries int
	// BatchWorkers is the worker-pool size for batch requests (and the cap on a
	// request's own workers field). Default GOMAXPROCS.
	BatchWorkers int
	// MaxSessions caps the number of live sessions. Default 64.
	MaxSessions int
	// MaxBodyBytes caps request bodies (CSV uploads included). Default 16MB.
	MaxBodyBytes int64
	// JobWorkers is the async job worker-pool size (default 2). Each how-to
	// job parallelizes internally, so a small pool already saturates cores.
	JobWorkers int
	// JobQueueDepth bounds queued (not yet running) jobs; submissions past
	// it are rejected with HTTP 429 (default 64).
	JobQueueDepth int
	// JobsPerSession caps one session's live (queued + running) jobs
	// (default 4; <0 disables the limit).
	JobsPerSession int
	// JobRetention is how many finished jobs stay pollable (default 256).
	JobRetention int
	// DistTTL is the worker lease of the embedded shard coordinator: a
	// registered worker whose last heartbeat is older is not assigned plan
	// shards (default 15s).
	DistTTL time.Duration
	// DistSecret, when non-empty, gates worker registration (and is
	// presented on every worker dial-back). A registered worker receives
	// session data and its partials merge into query results, so set a
	// secret whenever untrusted peers can reach the listeners.
	DistSecret string
	// DistStatePath, when non-empty, persists the coordinator's worker
	// registry (quarantine state and shipped frames included) to this JSON
	// file so a restarted daemon re-adopts its fleet.
	DistStatePath string
	// DistRPCTimeout bounds each coordinator->worker RPC attempt (default
	// 2m, dist.CoordinatorConfig.RPCTimeout).
	DistRPCTimeout time.Duration
	// DistBreakerFailures is K: consecutive dispatch failures that
	// quarantine a worker (default 3).
	DistBreakerFailures int
	// DistBreakerCooldown is a quarantined worker's cooldown (default 30s).
	DistBreakerCooldown time.Duration
	// Fault, when non-nil, arms the deterministic fault injector at the
	// coordinator's injection points and at the stages of local what-ifs
	// (chaos and telemetry testing; nil in production).
	Fault *fault.Injector
	// UsageEntries bounds the query-shape usage table served by /v1/usage;
	// when full, a new shape evicts the least-used row (default 256).
	UsageEntries int
	// SlowQueryMs, when > 0, logs one JSON line (endpoint, latency, status,
	// trace id) to SlowQueryLog for every traced request at least that slow.
	SlowQueryMs int
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
	// Logf, when non-nil, receives one line per request.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 256
	}
	if c.PlanCacheEntries < 0 {
		c.PlanCacheEntries = 0 // unbounded
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 64
	}
	if c.JobsPerSession == 0 {
		c.JobsPerSession = 4
	}
	if c.JobsPerSession < 0 {
		c.JobsPerSession = 0 // unlimited
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 256
	}
	if c.UsageEntries <= 0 {
		c.UsageEntries = 256
	}
	if c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	return c
}

// Server hosts the session registry, the async job manager, and the HTTP
// handlers.
type Server struct {
	cfg   Config
	start time.Time

	mu       sync.RWMutex
	sessions map[string]*sessionEntry

	jobs *jobs.Manager
	dist *dist.Coordinator

	metrics *obs.Registry
	traces  *obs.Recorder
	usage   *usageTable
	slow    *obs.Counter // slow-query lines emitted
	panics  *obs.Counter // handler panics recovered into JSON 500s
	slowMu  sync.Mutex   // serializes SlowQueryLog writes

	// Per-query cost histograms, observed by recordUsage per endpoint.
	costTuples *obs.Vec[*obs.Histogram]
	costShards *obs.Vec[*obs.Histogram]

	// planCompile observes each plan compilation's latency (every session's
	// plan cache feeds it through its compile observer).
	planCompile *obs.Histogram

	stats statsRecorder
}

// New returns a server with an empty session registry and a running job
// worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		sessions: make(map[string]*sessionEntry),
		metrics:  obs.NewRegistry(),
		traces:   obs.NewRecorder(obs.TraceRingSize),
		usage:    newUsageTable(cfg.UsageEntries),
	}
	s.stats.init(s.metrics)
	s.jobs = jobs.NewManager(jobs.Config{
		Workers:         cfg.JobWorkers,
		QueueDepth:      cfg.JobQueueDepth,
		PerSessionLimit: cfg.JobsPerSession,
		Retention:       cfg.JobRetention,
		Trace:           s.traces,
		// Finished jobs land in the same usage table, cost histograms and
		// latency histogram as synchronous requests, under a job:<kind>
		// endpoint label.
		Usage: func(kind string, m *obs.Meter, elapsed time.Duration, err error) {
			s.recordUsage("job:"+kind, m, elapsed, err != nil)
			s.stats.record("job:"+kind, elapsed, err != nil)
		},
	})
	s.dist = dist.NewCoordinator(dist.CoordinatorConfig{
		TTL:             cfg.DistTTL,
		Secret:          cfg.DistSecret,
		Logf:            cfg.Logf,
		Metrics:         s.metrics,
		RPCTimeout:      cfg.DistRPCTimeout,
		BreakerFailures: cfg.DistBreakerFailures,
		BreakerCooldown: cfg.DistBreakerCooldown,
		StatePath:       cfg.DistStatePath,
		Fault:           cfg.Fault,
	})
	s.slow = s.metrics.Counter("hyper_slow_queries_total", "Requests that exceeded the slow-query threshold.")
	s.panics = s.metrics.Counter("hyper_server_panics_total", "Handler panics recovered into JSON 500 responses.")
	s.registerMetrics()
	return s
}

// Drain gracefully shuts the job subsystem down: no new jobs are admitted
// (submissions get HTTP 503), queued jobs are cancelled, and running jobs
// are awaited until ctx expires — then cancelled and awaited (promptly,
// since the compute stack observes job contexts). The HTTP handlers other
// than job submission keep working, so clients can poll final job states
// while the HTTP server itself shuts down.
func (s *Server) Drain(ctx context.Context) error {
	return s.jobs.Drain(ctx)
}

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	OK      bool    `json:"ok"`
	UptimeS float64 `json:"uptime_s"`
}

// Handler returns the routed HTTP handler for the API surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, HealthResponse{OK: true, UptimeS: time.Since(s.start).Seconds()})
	})
	mux.Handle("GET /v1/datasets", s.instrument("datasets", s.handleDatasets))

	// Resource-oriented session surface: the session is the resource, its
	// rows, snapshots and query evaluations are sub-resources.
	mux.Handle("GET /v1/sessions", s.instrument("sessions", s.handleListSessions))
	mux.Handle("POST /v1/sessions", s.instrument("sessions", s.handleCreateSession))
	mux.Handle("GET /v1/sessions/{name}", s.instrument("sessions", s.handleGetSession))
	mux.Handle("DELETE /v1/sessions/{name}", s.instrument("sessions", s.handleDeleteSession))
	mux.Handle("POST /v1/sessions/{name}/rows", s.instrument("append", s.handleAppendRows))
	mux.Handle("GET /v1/sessions/{name}/snapshots", s.instrument("sessions", s.handleListSnapshots))
	mux.Handle("POST /v1/sessions/{name}/whatif", s.instrument("whatif", s.handleSessionQuery("whatif")))
	mux.Handle("POST /v1/sessions/{name}/howto", s.instrument("howto", s.handleSessionQuery("howto")))
	mux.Handle("POST /v1/sessions/{name}/explain", s.instrument("explain", s.handleSessionQuery("explain")))
	mux.Handle("POST /v1/sessions/{name}/batch", s.instrument("batch", s.handleSessionBatch))

	mux.Handle("POST /v1/jobs", s.instrument("jobs", s.handleSubmitJob))
	mux.Handle("GET /v1/jobs", s.instrument("jobs", s.handleListJobs))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs", s.handleGetJob))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs", s.handleCancelJob))
	mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /v1/usage", s.instrument("usage", s.handleUsage))
	mux.Handle("GET /v1/usage/{session}", s.instrument("usage", s.handleUsageSession))
	mux.Handle("GET /v1/traces", s.instrument("traces", s.traces.HandleList))
	mux.Handle("GET /v1/traces/{id}", s.instrument("traces", s.traces.HandleGet))
	mux.Handle("GET /metrics", s.metrics.Handler())
	// Shard-transport registration surface: workers announce themselves and
	// heartbeat here; the coordinator dials them back for shard work.
	dh := s.dist.Handler()
	mux.Handle("/dist/v1/workers", dh)
	mux.Handle("/dist/v1/workers/", dh)
	// Every route, /dist/v1/* included, reads its body under MaxBodyBytes,
	// and the mux's own plain-text 404/405 pages come out in the JSON error
	// envelope, so no route — known or not — answers shapeless.
	return httpapi.Serve(s.cfg.MaxBodyBytes, mux)
}

// tracedEndpoints are the query-evaluation endpoints that get a span tree
// per request: the trace rides the request context through the engine, the
// rendered tree lands in the trace ring (GET /v1/traces), and ?trace=1
// inlines it in the response ("EXPLAIN ANALYZE" for the HypeR stack).
var tracedEndpoints = map[string]bool{"whatif": true, "howto": true, "explain": true, "batch": true, "append": true}

// instrument wraps a handler with panic recovery, latency recording, error
// mapping, request tracing, and request logging. Handlers return (payload,
// error); both are written by httpapi.Respond, errors as the envelope of
// httpapi.StatusOf (an *httpapi.Error's status, else 499/504/500). A handler
// panic becomes a JSON 500 (counted in hyper_server_panics_total, stack
// logged, trace annotated) instead of tearing down the connection — the
// response is written centrally after fn returns, so nothing has touched
// the ResponseWriter yet when the recovery fires. Traced endpoints always
// answer with an X-Hyper-Trace-Id header; tracing is an execution-only
// layer, so payloads are byte-identical to an untraced server's unless
// ?trace=1 explicitly asks for the inline tree.
func (s *Server) instrument(endpoint string, fn httpapi.Func) http.Handler {
	call := func(r *http.Request) (payload any, err error) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// The sentinel for deliberately severed connections must keep
				// propagating to net/http.
				panic(p)
			}
			s.panics.Add(1)
			if sp := obs.SpanFromContext(r.Context()); sp != nil {
				sp.Set("panic", fmt.Sprint(p))
			}
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			if s.cfg.Logf != nil {
				s.cfg.Logf("panic in /v1/%s handler: %v\n%s", endpoint, p, stack)
			} else {
				fmt.Fprintf(os.Stderr, "hyperd: panic in /v1/%s handler: %v\n%s\n", endpoint, p, stack)
			}
			payload, err = nil, httpapi.CodeErrorf(http.StatusInternalServerError, "panic", "internal server error")
		}()
		return fn(r)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tr *obs.Trace
		var meter *obs.Meter
		if tracedEndpoints[endpoint] {
			tr = obs.NewTrace(endpoint)
			// The meter rides the same context as the trace: an execution-only
			// cost ledger, charged by the engine/howto/ip/dist layers and
			// finalized into the usage table below. Like tracing it can never
			// change a result.
			meter = obs.NewMeter()
			ctx := obs.ContextWithMeter(tr.Context(r.Context()), meter)
			r = r.WithContext(ctx)
		}
		payload, err := call(r)
		elapsed := time.Since(start)
		status := http.StatusOK
		if err != nil {
			status, _ = httpapi.StatusOf(err)
		}
		if tr != nil {
			tr.Root().Set("status", status)
			tr.Finish()
			tj := s.traces.Record(tr)
			w.Header().Set(obs.TraceIDHeader, tr.ID)
			if err == nil && r.URL.Query().Get("trace") == "1" {
				attachTrace(payload, tj)
			}
			if s.cfg.SlowQueryMs > 0 && elapsed >= time.Duration(s.cfg.SlowQueryMs)*time.Millisecond {
				s.logSlowQuery(endpoint, tr.ID, elapsed, status, meter)
			}
		}
		s.recordUsage(endpoint, meter, elapsed, err != nil)
		// Every error, from any handler, renders through the one envelope
		// writer; successes render their typed payloads.
		httpapi.Respond(w, payload, err)
		s.stats.record(endpoint, elapsed, err != nil)
		if s.cfg.Logf != nil {
			s.cfg.Logf("%s %s -> %d (%s)", r.Method, r.URL.Path, status, elapsed.Round(time.Microsecond))
		}
	})
}

// session looks up a live session by name.
func (s *Server) session(name string) (*sessionEntry, error) {
	if name == "" {
		return nil, httpapi.Errorf(http.StatusBadRequest, "missing session name")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sessions[name]
	if !ok {
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown session %q", name)
	}
	return e, nil
}

// parseMode maps the wire name of an engine mode.
func parseMode(name string) (hyper.Mode, error) {
	switch name {
	case "", "full", "hyper":
		return hyper.ModeFull, nil
	case "nb", "hyper-nb":
		return hyper.ModeNB, nil
	case "indep":
		return hyper.ModeIndep, nil
	default:
		return 0, httpapi.Errorf(http.StatusBadRequest, "unknown mode %q (want full|nb|indep)", name)
	}
}
