package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/fault"
	"hyper/internal/httpapi"
	"hyper/internal/hyperql"
	"hyper/internal/lru"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// WorkerConfig tunes a worker; the zero value is usable.
type WorkerConfig struct {
	// MaxFrames bounds the frame store (LRU eviction). Default 8.
	MaxFrames int
	// MaxBodyBytes caps request bodies. Default 256MB.
	MaxBodyBytes int64
	// Secret, when non-empty, requires every compute request (frames, eval)
	// to present the shared dist secret — set it when untrusted peers
	// can reach the worker's listener, mirroring the coordinator's Secret.
	Secret string
	// Logf, when non-nil, receives one line per request.
	Logf func(format string, args ...any)
	// Fault, when non-nil, is the armed fault injector consulted at the
	// worker-side injection points (eval, and heartbeat in Join). Nil — the
	// production default — costs one pointer check per request.
	Fault *fault.Injector
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxFrames <= 0 {
		c.MaxFrames = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	return c
}

// Worker serves the shard-transport compute endpoints: it stores shipped
// frames (content-addressed, LRU-bounded) and evaluates per-shard what-if
// partials against them. A worker is stateless
// beyond its frame cache: every computation derives the deterministic
// evaluation state from frame + query + options, or finds it in that
// frame's cache, so workers can join, die, and rejoin freely without
// affecting any result.
type Worker struct {
	cfg    WorkerConfig
	frames *lru.Cache[*workerFrame] // by content address

	// inflight counts eval requests currently executing, so a draining
	// worker (SIGTERM) can finish them before deregistering.
	inflight atomic.Int64

	// Observability: a per-worker metric registry (served at GET /metrics on
	// the worker's own mux) and a trace ring holding the span trees of
	// coordinator-traced compute requests (GET /v1/traces).
	metrics    *obs.Registry
	traces     *obs.Recorder
	evals      *obs.Counter // eval requests answered successfully
	evalShards *obs.Counter // plan shards evaluated (successful evals only)
	frameBytes *obs.Counter // frame bytes accepted into the store
	evictions  *obs.Counter // frames evicted by the LRU bound
}

// frameCacheEntries bounds each frame's engine artifact cache.
const frameCacheEntries = 256

// workerFrame is one decoded frame plus its engine cache (views, blocks,
// trained estimators and each query shape's engine.Prepared are shared
// across the queries hitting this frame).
type workerFrame struct {
	db    *relation.Database
	model *causal.Model
	cache *engine.Cache
}

// NewWorker returns a worker with an empty frame store.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{
		cfg:     cfg.withDefaults(),
		metrics: obs.NewRegistry(),
		traces:  obs.NewRecorder(obs.TraceRingSize),
	}
	w.evals = w.metrics.Counter("hyper_worker_evals_total", "Eval requests answered successfully.")
	w.evalShards = w.metrics.Counter("hyper_worker_eval_shards_total", "Plan shards evaluated by this worker (successful evals only).")
	w.frameBytes = w.metrics.Counter("hyper_worker_frame_bytes_received_total", "Frame bytes accepted into the store.")
	w.evictions = w.metrics.Counter("hyper_worker_frame_evictions_total", "Frames evicted by the LRU bound.")
	w.frames = lru.New(w.cfg.MaxFrames, func(id string, _ *workerFrame) {
		w.evictions.Inc()
		w.logf("dist worker: evicted frame %.12s", id)
	})
	w.metrics.GaugeFunc("hyper_worker_frames", "Frames currently in the store.",
		func() float64 { return float64(w.frames.Len()) })
	w.metrics.CounterFunc("hyper_worker_traces_recorded_total", "Coordinator-traced requests captured into the trace ring.",
		func() float64 { return float64(w.traces.Recorded()) })
	w.metrics.GaugeFunc("hyper_worker_inflight", "Eval requests currently executing.",
		func() float64 { return float64(w.inflight.Load()) })
	obs.RegisterRuntimeMetrics(w.metrics)
	registerFaultMetric(w.metrics, w.cfg.Fault)
	return w
}

// InFlight reports the eval requests currently executing.
func (w *Worker) InFlight() int { return int(w.inflight.Load()) }

// Drain blocks until no eval request is in flight or ctx expires —
// the graceful-shutdown half of the requeue contract: a SIGTERM'd worker
// finishes the shards it was assigned instead of forcing the coordinator
// through a retry/requeue round-trip.
func (w *Worker) Drain(ctx context.Context) error {
	for {
		if w.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dist worker: drain timed out with %d requests in flight: %w", w.inflight.Load(), ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// injectFault consults the worker's injector at a request point. ModeError
// answers an injected 500 (the coordinator's retry policy sees a retryable
// status); ModeDrop — and a kill a test survived — aborts the connection
// without a response, what a crashed worker looks like on the wire. A real
// ModeKill exits the process inside Decide and never returns.
func (w *Worker) injectFault(p fault.Point) error {
	switch d := w.cfg.Fault.Decide(p); d.Mode {
	case fault.ModeError:
		return httpapi.Errorf(http.StatusInternalServerError, "%v", d.Err)
	case fault.ModeDrop, fault.ModeKill:
		panic(http.ErrAbortHandler)
	default:
		return nil
	}
}

// Metrics returns the worker's metric registry (served at GET /metrics).
func (w *Worker) Metrics() *obs.Registry { return w.metrics }

// Handler returns the worker's HTTP surface; every request body it reads is
// capped at MaxBodyBytes.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("PUT "+pathFrames+"{id}", guarded(w.cfg.Secret, w.handlePutFrame))
	mux.Handle("POST "+pathEval, guarded(w.cfg.Secret, w.handleEval))
	// Observability surface, unauthenticated: metric values and span
	// shapes carry no session data.
	mux.Handle("GET /metrics", w.metrics.Handler())
	mux.Handle("GET /v1/traces", httpapi.Func(w.traces.HandleList))
	mux.Handle("GET /v1/traces/{id}", httpapi.Func(w.traces.HandleGet))
	return httpapi.Serve(w.cfg.MaxBodyBytes, mux)
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// FrameIDs returns the stored frame ids, least recently used first.
func (w *Worker) FrameIDs() []string { return w.frames.Keys() }

// store inserts a frame, evicting the least recently used past the bound.
// Frames are content-addressed, so an identical re-ship keeps the resident
// frame (and the artifacts its cache has accumulated). The build returns at
// once and cannot fail, so no caller waits long enough to need a context.
func (w *Worker) store(id string, f *workerFrame) {
	_, _, _ = w.frames.Do(context.Background(), id, func() (*workerFrame, error) { return f, nil })
}

// traceRequest starts a worker-local trace when the coordinator stamped the
// request with a trace id; the returned finish renders the tree into the
// worker's ring and hands back the root for the response body (nil without
// the header — untraced requests pay one header read).
func (w *Worker) traceRequest(r *http.Request, name string) (ctx context.Context, finish func() *obs.SpanJSON) {
	traceID := r.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		return r.Context(), func() *obs.SpanJSON { return nil }
	}
	tr := obs.NewTraceWithID(traceID, name)
	return tr.Context(r.Context()), func() *obs.SpanJSON {
		tr.Finish()
		return w.traces.Record(tr).Root
	}
}

func (w *Worker) handlePutFrame(r *http.Request) (any, error) {
	id := r.PathValue("id")
	body, err := httpapi.ReadBody(r)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != id {
		// The id is the integrity check: a frame that does not hash to its
		// name was corrupted in transit (or the coordinator is buggy).
		return nil, httpapi.Errorf(http.StatusBadRequest, "frame body hashes to %.12s, not %.12s", got, id)
	}
	db, model, err := buildFrame(body, w.frames.Get)
	var missing parentMissing
	if errors.As(err, &missing) {
		// The coordinator ships version chains bottom-up, so a missing
		// parent was evicted in between; frame_missing makes the
		// coordinator re-ship the chain and retry.
		return nil, httpapi.CodeErrorf(http.StatusNotFound, codeFrameMissing, "%v", err)
	}
	if err != nil {
		return nil, httpapi.Errorf(http.StatusBadRequest, "building frame: %v", err)
	}
	w.store(id, &workerFrame{db: db, model: model, cache: engine.NewCacheBounded(frameCacheEntries)})
	w.frameBytes.Add(len(body))
	w.logf("dist worker: stored frame %.12s (v%d, %d rows)", id, db.Version(), db.TotalRows())
	return map[string]any{"ok": true}, nil
}

// handleEval serves the compute route: the in-flight count Drain waits on,
// the fault point, decoding the request, resolving its frame (a miss is the
// frame_missing protocol error) and query, the engine options over the
// frame's cache, the trace the coordinator may have asked for, and a fresh
// per-request meter that the engine charges through the context and the
// coordinator folds into the query's. An evaluation error answers 400; the
// reply is the binary body of evalreply.go.
func (w *Worker) handleEval(r *http.Request) (any, error) {
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	if err := w.injectFault(fault.PointEval); err != nil {
		return nil, err
	}
	var req EvalRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, err
	}
	f, ok := w.frames.Get(req.Frame)
	if !ok {
		return nil, httpapi.CodeErrorf(http.StatusNotFound, codeFrameMissing, "frame %.12s not on this worker", req.Frame)
	}
	q, err := hyperql.ParseWhatIf(req.Query)
	if err != nil {
		return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
	}
	opts := req.Options
	opts.Cache = f.cache
	ctx, finish := w.traceRequest(r, "eval")
	meter := obs.NewMeter()
	meter.Charge(obs.MeterJSON{DistBytesReceived: uint64(max(r.ContentLength, 0))}) // ContentLength is -1 when unknown
	res, err := engine.EvaluatePartialContext(obs.ContextWithMeter(ctx, meter), f.db, f.model, q, opts, req.Shards)
	if err != nil {
		return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
	}
	// Encoded whole before the status goes out: a failure is a 500 envelope,
	// never a 200 with a truncated body.
	body, err := encodeEvalReply(&EvalResponse{PartialResult: *res, Spans: finish(), Meter: meter.JSON()})
	if err != nil {
		return nil, httpapi.Errorf(http.StatusInternalServerError, "%v", err)
	}
	w.evals.Inc()
	w.evalShards.Add(len(req.Shards))
	w.logf("dist worker: eval frame=%.12s shards=%v plan=%d", req.Frame, req.Shards, res.Meta.Plan)
	return httpapi.Blob{ContentType: "application/octet-stream", Body: body}, nil
}
