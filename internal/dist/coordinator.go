package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/fault"
	"hyper/internal/httpapi"
	"hyper/internal/hyperql"
	"hyper/internal/lru"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
	"hyper/internal/stats"
)

// CoordinatorConfig tunes the coordinator; the zero value is usable.
type CoordinatorConfig struct {
	// TTL is the worker lease: a worker whose last heartbeat is older is
	// not assigned work. Default 15s.
	TTL time.Duration
	// Client performs the worker dial-backs. Default http.DefaultClient
	// (evaluations can be long; cancellation flows through request
	// contexts, not client timeouts).
	Client *http.Client
	// Secret, when non-empty, gates the dist surface: worker registration
	// must present it (Authorization: Bearer <secret>) and the coordinator
	// presents it on every dial-back so workers can verify their caller.
	// A worker accepted into the registry receives session data and its
	// partials are merged into query results, so on any network where
	// untrusted peers can reach the listeners, set a secret on both ends
	// (hyperd -dist-secret).
	Secret string
	// Logf, when non-nil, receives coordinator events (registrations,
	// drops, requeues, frame ships).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the coordinator's metric families at
	// construction time: the hyper_dist_* series (the counters /v1/stats reads
	// back, registry gauges, the per-worker requeue events) and
	// hyper_fault_injected_total. Nil keeps them in a private registry.
	Metrics *obs.Registry
	// MaxAttempts caps the tries of one worker RPC (frame ships included),
	// the first included. Default 3.
	MaxAttempts int
	// RPCTimeout bounds each attempt (evaluations can be legitimately long;
	// this is a liveness bound, not a latency target). Default 2m.
	RPCTimeout time.Duration
	// BreakerFailures is K: consecutive dispatch failures that quarantine a
	// worker. Default 3.
	BreakerFailures int
	// BreakerCooldown is how long a quarantined worker is skipped before
	// its half-open probe. Default 30s.
	BreakerCooldown time.Duration
	// StatePath, when non-empty, persists the coordinator state (worker
	// registry, shipped frames, quarantine) to this JSON file so a restarted
	// coordinator re-adopts its fleet.
	StatePath string
	// Fault, when non-nil, is the armed fault injector consulted at the
	// coordinator-side injection points (worker_dial, frame_ship, persist).
	// Nil — the production default — costs one pointer check per point.
	Fault *fault.Injector
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.TTL <= 0 {
		c.TTL = 15 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Minute
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Coordinator owns the worker registry and drives distributed shard
// execution: contiguous plan-shard assignment over the live workers, frame
// shipping on first touch, requeue of lost workers' shards onto the
// survivors (or local fallback), and the plan-order reduce that keeps
// distributed results bit-identical to local ones.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[string]*remoteWorker

	// Counters, registered in the metrics registry /metrics serves and read
	// back by Stats for /v1/stats: each count exists once.
	registered     *obs.Counter // registrations accepted (incl. re-registrations)
	lost           *obs.Counter // workers quarantined after dispatch failures
	requeues       *obs.Counter // shard batches requeued after a worker loss
	framesShipped  *obs.Counter
	remoteEvals    *obs.Counter // distributed what-if evaluations completed
	remoteShards   *obs.Counter // plan shards evaluated on remote workers
	localFallbacks *obs.Counter // times pending shards fell back to local
	retries        *obs.Counter // RPC retries under the unified policy
	restored       *obs.Counter // workers re-adopted from the state file
	persistErrors  *obs.Counter // failed (best-effort) state saves

	// jitter is the seeded backoff-jitter stream (guarded: retries from
	// concurrent dispatch goroutines draw from one sequence).
	jitterMu sync.Mutex
	jitter   *stats.RNG

	// saveMu serializes state-file writes (each is a temp-write + rename).
	saveMu sync.Mutex

	// requeueEvents labels each worker failure that requeued shards with
	// who failed and why (reason: lease_expired | dial_fail |
	// frame_missing).
	requeueEvents *obs.Vec[*obs.Counter]
}

// remoteWorker is one registered worker. frames is the ledger of frames this
// worker has confirmed, so steady-state dispatch skips the 404 round-trip:
// an unbounded internal/lru instance whose single-flight build is the ship,
// so a hit means shipped. breaker is the worker's quarantine circuit.
type remoteWorker struct {
	id      string
	url     string
	breaker *breaker
	frames  *lru.Cache[struct{}]

	mu       sync.Mutex
	lastBeat time.Time
}

func (w *remoteWorker) beat() {
	w.mu.Lock()
	w.lastBeat = time.Now()
	w.mu.Unlock()
}

func (w *remoteWorker) aliveAt(ttl time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.lastBeat) <= ttl
}

// NewCoordinator returns a coordinator, re-adopting a previously persisted
// fleet when the configured state file exists.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults(), workers: make(map[string]*remoteWorker)}
	c.jitter = stats.NewRNG(jitterSeed)
	r := c.cfg.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	r.GaugeFunc("hyper_dist_workers_alive", "Registered workers within their heartbeat lease.",
		func() float64 { return float64(c.WorkersAlive()) })
	r.GaugeFunc("hyper_dist_workers_registered", "Workers in the registry, alive or not.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.workers)) })
	c.registered = r.Counter("hyper_dist_registrations_total", "Worker registrations accepted (including re-registrations).")
	c.lost = r.Counter("hyper_dist_workers_lost_total", "Workers quarantined after dispatch failures.")
	c.retries = r.Counter("hyper_dist_retries_total", "Worker RPC retries under the unified retry policy.")
	r.GaugeFunc("hyper_dist_breaker_state", "Workers currently quarantined (circuit open, cooldown not yet elapsed).",
		func() float64 { return float64(c.quarantinedCount()) })
	c.restored = r.Counter("hyper_dist_workers_restored_total", "Workers re-adopted from the persisted state file at startup.")
	c.persistErrors = r.Counter("hyper_dist_persist_errors_total", "Best-effort coordinator state saves that failed.")
	c.requeues = r.Counter("hyper_dist_requeues_total", "Shard batches requeued after a worker loss.")
	c.framesShipped = r.Counter("hyper_dist_frames_shipped_total", "Frame snapshots shipped to workers.")
	c.remoteEvals = r.Counter("hyper_dist_remote_evals_total", "Distributed what-if evaluations completed.")
	c.remoteShards = r.Counter("hyper_dist_remote_shards_total", "Plan shards evaluated on remote workers.")
	c.localFallbacks = r.Counter("hyper_dist_local_fallbacks_total", "Times pending shards fell back to local evaluation.")
	c.requeueEvents = r.CounterVec("hyper_dist_requeue_events_total",
		"Worker failures that requeued shards, by worker and failure reason.", "worker", "reason")
	registerFaultMetric(r, c.cfg.Fault)
	if c.cfg.StatePath != "" {
		if err := c.loadState(); err != nil {
			// Never discard operator state silently: move the unreadable
			// file aside for inspection and start fresh.
			c.logf("dist: cannot load coordinator state: %v", err)
			if rerr := os.Rename(c.cfg.StatePath, c.cfg.StatePath+".corrupt"); rerr == nil {
				c.logf("dist: moved unreadable state file to %s.corrupt", c.cfg.StatePath)
			}
		}
	}
	return c
}

// registerFaultMetric registers hyper_fault_injected_total{point,mode} in r
// and counts every firing of in there. Both roles register it, and with no
// injector armed the family still exists (at zero), so the metric schema is
// role-stable.
func registerFaultMetric(r *obs.Registry, in *fault.Injector) {
	fired := r.CounterVec("hyper_fault_injected_total",
		"Faults fired by the deterministic injector, by point and mode.", "point", "mode")
	in.SetOnFire(func(p fault.Point, m fault.Mode) { fired.With(string(p), string(m)).Inc() })
}

// newRemoteWorker builds a registry entry: a breaker with the coordinator's
// K/cooldown, an empty shipped-frame ledger, and a lease that starts now.
func (c *Coordinator) newRemoteWorker(id, url string) *remoteWorker {
	return &remoteWorker{
		id: id, url: url, lastBeat: time.Now(),
		breaker: newBreaker(c.cfg.BreakerFailures, c.cfg.BreakerCooldown),
		frames:  lru.New[struct{}](0, nil),
	}
}

// quarantinedCount reports workers whose circuit is open within cooldown.
func (c *Coordinator) quarantinedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.breaker.state() == breakerOpen {
			n++
		}
	}
	return n
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// registerBodyCap caps every request body the coordinator's routes read. A
// RegisterRequest is two strings (an id and a URL), so no configuration
// needs more.
const registerBodyCap = 64 << 10

// Handler returns the coordinator's registration surface, mountable next to
// the serving API (hyperd serves it on the same listener).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST "+pathWorkers, guarded(c.cfg.Secret, c.handleRegister))
	mux.Handle("POST "+pathWorkers+"/{id}/beat", guarded(c.cfg.Secret, c.handleBeat))
	mux.Handle("DELETE "+pathWorkers+"/{id}", guarded(c.cfg.Secret, c.handleDeregister))
	mux.Handle("GET "+pathWorkers, httpapi.Func(func(*http.Request) (any, error) {
		return map[string]any{"workers": c.WorkerInfos()}, nil
	}))
	return httpapi.Serve(registerBodyCap, mux)
}

func (c *Coordinator) handleRegister(r *http.Request) (any, error) {
	var req RegisterRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, err
	}
	if req.ID == "" || req.URL == "" {
		return nil, httpapi.Errorf(http.StatusBadRequest, "register requires id and url")
	}
	if u, err := url.Parse(req.URL); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, httpapi.Errorf(http.StatusBadRequest, "register url %q: want an http or https URL with a host", req.URL)
	}
	c.Register(req.ID, req.URL)
	return map[string]any{"ok": true, "ttl_ms": c.cfg.TTL.Milliseconds()}, nil
}

func (c *Coordinator) handleBeat(r *http.Request) (any, error) {
	id := r.PathValue("id")
	c.mu.Lock()
	w, ok := c.workers[id]
	c.mu.Unlock()
	if !ok {
		// Unknown (deregistered or never-seen) worker: it must
		// re-register, which also re-announces its URL.
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown worker %q", id)
	}
	w.beat()
	if w.breaker.state() == breakerHalfOpen {
		// The cooldown has elapsed and the worker is demonstrably
		// alive: close the circuit rather than waiting for the next
		// query to probe it.
		w.breaker.onSuccess()
		c.logf("dist: worker %s rehabilitated after quarantine cooldown", id)
		c.saveState()
	}
	return map[string]any{"ok": true}, nil
}

func (c *Coordinator) handleDeregister(r *http.Request) (any, error) {
	id := r.PathValue("id")
	c.mu.Lock()
	_, ok := c.workers[id]
	delete(c.workers, id)
	c.mu.Unlock()
	if !ok {
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown worker %q", id)
	}
	c.logf("dist: worker %s deregistered", id)
	c.saveState()
	return map[string]any{"ok": true}, nil
}

// Register adds (or refreshes) a worker and starts its lease. A
// re-registration at the same URL keeps the existing entry — shipped-frame
// bookkeeping and breaker history survive a worker's heartbeat blips.
func (c *Coordinator) Register(id, url string) {
	c.mu.Lock()
	w, ok := c.workers[id]
	if !ok || w.url != url {
		w = c.newRemoteWorker(id, url)
		c.workers[id] = w
	}
	c.mu.Unlock()
	w.beat()
	c.registered.Inc()
	c.logf("dist: worker %s registered at %s", id, url)
	c.saveState()
}

// assignable snapshots the workers that may be given shards — within their
// heartbeat lease and not quarantined — sorted by id so shard assignment is
// deterministic given a membership set. run, when non-nil, is the operation
// asking: the workers it has already given up on are left out, and skipping a
// quarantined worker is a degradation event for it (the query is executing
// below the full registered fleet).
func (c *Coordinator) assignable(run *queryRun) []*remoteWorker {
	c.mu.Lock()
	quarantined := false
	var out []*remoteWorker
	for _, w := range c.workers {
		if !w.aliveAt(c.cfg.TTL) {
			continue
		}
		if run != nil && run.isBad(w.id) {
			// Already failed this operation: its exclusion was noted as
			// worker_lost when it failed, not as a quarantine skip.
			continue
		}
		if !w.breaker.allow() {
			quarantined = true
			continue
		}
		out = append(out, w)
	}
	c.mu.Unlock()
	if quarantined && run != nil {
		run.note(degradeQuarantine)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// WorkersAlive returns the number of assignable workers (leased, not
// quarantined).
func (c *Coordinator) WorkersAlive() int { return len(c.assignable(nil)) }

// WorkerInfos snapshots the registry for listings and stats.
func (c *Coordinator) WorkerInfos() []WorkerInfo {
	c.mu.Lock()
	ws := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
	out := make([]WorkerInfo, len(ws))
	for i, w := range ws {
		fails, _, _ := w.breaker.snapshot()
		w.mu.Lock()
		out[i] = WorkerInfo{
			ID: w.id, URL: w.url,
			Alive:       time.Since(w.lastBeat) <= c.cfg.TTL,
			LastBeatMs:  float64(time.Since(w.lastBeat)) / float64(time.Millisecond),
			Frames:      w.frames.Len(),
			Quarantined: w.breaker.state() == breakerOpen,
			Fails:       fails,
		}
		w.mu.Unlock()
	}
	return out
}

// workerFailed records a dispatch failure after the retry policy gave up on
// a worker: the worker is excluded from the rest of this operation (its
// shards requeue onto the survivors — a degradation event), the failure
// counts against its breaker, and crossing K consecutive failures
// quarantines it for the cooldown. The worker stays registered either way:
// its frames and lease survive, and a post-cooldown heartbeat or successful
// probe rehabilitates it — no drop/re-register churn.
func (c *Coordinator) workerFailed(run *queryRun, w *remoteWorker, err error) {
	reason := requeueReason(w, err, c.cfg.TTL)
	run.markBad(w.id)
	run.note(degradeWorkerLost)
	c.requeueEvents.With(w.id, reason).Inc()
	if w.breaker.onFailure() {
		c.lost.Inc()
		c.logf("dist: quarantining worker %s for %v (%s): %v", w.id, c.cfg.BreakerCooldown, reason, err)
		c.saveState()
		return
	}
	c.logf("dist: worker %s failed (%s), excluded for this query: %v", w.id, reason, err)
}

// requeueReason classifies why a worker's shards are being requeued:
// frame_missing when the worker kept losing the frame mid-request (store
// thrash), lease_expired when its heartbeat lease had already lapsed by
// failure time, dial_fail for everything else (transport error, 5xx).
func requeueReason(w *remoteWorker, err error, ttl time.Duration) string {
	var thrash frameThrashError
	switch {
	case errors.As(err, &thrash):
		return "frame_missing"
	case !w.aliveAt(ttl):
		return "lease_expired"
	default:
		return "dial_fail"
	}
}

// frameThrashError marks repeated frame loss on one worker mid-request (the
// retryable failure whose requeue reason is frame_missing).
type frameThrashError struct{ err error }

func (e frameThrashError) Error() string { return e.err.Error() }

// Stats is the coordinator gauge snapshot (wire form for /v1/stats).
type Stats struct {
	WorkersAlive       int    `json:"workers_alive"`
	WorkersRegistered  int    `json:"workers_registered"`
	WorkersQuarantined int    `json:"workers_quarantined"`
	Registrations      uint64 `json:"registrations"`
	WorkersLost        uint64 `json:"workers_lost"`
	Requeues           uint64 `json:"requeues"`
	FramesShipped      uint64 `json:"frames_shipped"`
	RemoteEvals        uint64 `json:"remote_evals"`
	RemoteShards       uint64 `json:"remote_shards"`
	LocalFallbacks     uint64 `json:"local_fallbacks"`
	Retries            uint64 `json:"retries"`
	RestoredWorkers    uint64 `json:"restored_workers"`
	PersistErrors      uint64 `json:"persist_errors,omitempty"`
	FaultsInjected     uint64 `json:"faults_injected,omitempty"`
}

// Stats snapshots the coordinator gauges.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	registered := len(c.workers)
	c.mu.Unlock()
	return Stats{
		WorkersAlive:       c.WorkersAlive(),
		WorkersRegistered:  registered,
		WorkersQuarantined: c.quarantinedCount(),
		Registrations:      c.registered.Value(),
		WorkersLost:        c.lost.Value(),
		Requeues:           c.requeues.Value(),
		FramesShipped:      c.framesShipped.Value(),
		RemoteEvals:        c.remoteEvals.Value(),
		RemoteShards:       c.remoteShards.Value(),
		LocalFallbacks:     c.localFallbacks.Value(),
		Retries:            c.retries.Value(),
		RestoredWorkers:    c.restored.Value(),
		PersistErrors:      c.persistErrors.Value(),
		FaultsInjected:     c.cfg.Fault.Fired(),
	}
}

// terminalError marks a worker response that must fail the whole operation
// (a malformed query fails identically everywhere — requeueing it would
// fail every worker in turn).
type terminalError struct{ err error }

func (e terminalError) Error() string { return e.err.Error() }

// postWorker POSTs an eval request to a worker, shipping the frame first
// and running every RPC under the run's unified retry policy (per-attempt
// timeouts, backoff with seeded jitter, the operation's retry budget). A
// 4xx response other than the frame_missing miss is terminal; transport
// failures, 5xx and a reply that does not decode are retryable — the policy
// retries in place, and only once it gives up does the caller exclude the
// worker and requeue. replyLimit caps the reply (readReply).
func (c *Coordinator) postWorker(ctx context.Context, run *queryRun, w *remoteWorker, frame *Frame, request EvalRequest, replyLimit int64) (*EvalResponse, error) {
	frameID, _, err := frame.Payload()
	if err != nil {
		return nil, terminalError{err}
	}
	body, err := json.Marshal(request)
	if err != nil {
		return nil, terminalError{err}
	}
	for miss := 0; ; miss++ {
		// Best effort: the authoritative signal is the worker's own
		// frame_missing answer below (a restarted worker forgets frames the
		// coordinator shipped to its previous life).
		if err := c.retry(ctx, run, func(actx context.Context) error {
			return c.ensureFrame(actx, w, frame)
		}); err != nil {
			return nil, err
		}
		var (
			resp         *EvalResponse
			frameMissing bool
		)
		err := c.retry(ctx, run, func(actx context.Context) error {
			frameMissing = false
			status, raw, err := c.roundTrip(actx, w, fault.PointWorkerDial, http.MethodPost, pathEval, body, replyLimit)
			if err != nil {
				return err
			}
			if status == http.StatusOK {
				if resp, err = decodeEvalReply(raw); err != nil {
					return fmt.Errorf("dist: decoding %s reply from %s: %w", pathEval, w.id, err)
				}
				obs.SpanFromContext(ctx).Set("resp_bytes", len(raw))
				// Charge the bytes of the one request the worker accepted —
				// the exact Content-Length the worker metered on its side, so
				// a retry-free query reconciles shipped == received.
				obs.MeterFromContext(ctx).Charge(obs.MeterJSON{DistBytesShipped: uint64(len(body))})
				return nil
			}
			switch e := httpapi.ReadError(status, raw); {
			case status == http.StatusNotFound && e.Code == codeFrameMissing:
				// Not a failed attempt: the next turn of the loop re-ships.
				frameMissing = true
				return nil
			case status >= 400 && status < 500:
				return terminalError{fmt.Errorf("dist: worker %s: %v", w.id, e)}
			default:
				return fmt.Errorf("dist: worker %s: %v", w.id, e)
			}
		})
		if err != nil {
			return nil, err
		}
		if !frameMissing {
			return resp, nil
		}
		if miss >= 2 {
			// The worker keeps losing the frame between ship and use (LRU
			// thrash across many hot sessions). That is a capacity problem,
			// not a query problem: report it retryable so the caller
			// requeues elsewhere or falls back locally instead of failing
			// the user's request.
			return nil, frameThrashError{fmt.Errorf("dist: worker %s evicted frame %.12s twice mid-request (frame-store thrash; raise -worker-frames)", w.id, frameID)}
		}
		// The worker lost the frame (restart, LRU eviction): forget our
		// ledger entry so the next ensureFrame ships again.
		w.frames.Forget(frameID)
	}
}

// ensureFrame makes sure the worker holds the frame, shipping it at most
// once per (worker, frame) at a time: the ship is the single-flight build of
// the worker's ledger entry, so concurrent cold requests (a batch fan-out,
// several clients on one new session) wait for the one in-flight
// upload instead of each PUTting the frame, a failed ship records
// nothing and the next waiter ships, and a waiter whose context ends returns.
func (c *Coordinator) ensureFrame(ctx context.Context, w *remoteWorker, frame *Frame) error {
	id, _, err := frame.Payload()
	if err != nil {
		return terminalError{err}
	}
	if _, ok := w.frames.Get(id); ok {
		// The warm path: a worker that holds a frame needs none of its
		// ancestors, so the version chain below it is not looked at.
		return nil
	}
	// A child frame is only applicable on a worker that holds its parent:
	// ensure the chain bottom-up before shipping the child, so an append on
	// top of an already-shipped base moves only the new rows. (A worker that
	// evicted the base between the two PUTs answers frame_missing, handled
	// in shipFrame.) The parents are ensured here, not inside the build: a
	// build must not call Do on the cache it fills.
	if p := frame.parent; p != nil {
		if err := c.ensureFrame(ctx, w, p); err != nil {
			return err
		}
	}
	_, hit, err := w.frames.Do(ctx, id, func() (struct{}, error) {
		return struct{}{}, c.shipFrame(ctx, w, frame)
	})
	if err == nil && !hit {
		// Persisted here rather than in the build, where the ledger does
		// not hold the id yet.
		c.saveState()
	}
	return err
}

// roundTrip is the one coordinator→worker HTTP exchange: it consults the
// caller's fault point (worker_dial for compute RPCs, frame_ship for ships —
// chaos rules count hits per point), sends body, and returns the status and
// the response body, read under replyLimit (readReply).
func (c *Coordinator) roundTrip(ctx context.Context, w *remoteWorker, point fault.Point, method, path string, body []byte, replyLimit int64) (int, []byte, error) {
	if err := c.faultHit(point); err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, w.url+path, bytes.NewReader(body))
	if err != nil {
		// A stored URL that does not parse (registration checks it, but a
		// -dist-state file or a direct Register does not) is this worker's
		// fault, not the query's: it fails like a dial, so the breaker
		// counts it and the shards requeue.
		return 0, nil, fmt.Errorf("dist: worker %s: %w", w.id, err)
	}
	req.Header.Set("Content-Type", "application/json")
	setSecret(req, c.cfg.Secret)
	if traceID := obs.TraceIDFromContext(ctx); traceID != "" {
		// Cross-process trace propagation: a stamped compute request asks the
		// worker to trace its evaluation and return the span tree in the
		// response body for grafting. (A frame PUT carries it unread.)
		req.Header.Set(obs.TraceIDHeader, traceID)
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := readReply(resp.Body, resp.ContentLength, replyLimit)
	if err != nil {
		return 0, nil, fmt.Errorf("dist: worker %s reply: %w", w.id, err)
	}
	return resp.StatusCode, raw, nil
}

// A worker's reply is read under a limit that its request fixes:
// replyBytesPerRow for each row of the assigned shards, plus replyAllowance
// for the JSON header (meta, meter and, when traced, the worker's span
// tree). An eval reply (format 2) holds, where blocks span rows, one Sum and
// one Cnt float64 per block of each shard's block window, which spans fewer
// blocks than rows on every such dataset measured so far. Where every row is
// a block of its own, the rows go as 1- or 2-byte class codes beside one
// (Sum, Cnt) per class referenced, or as a (Sum, Cnt) per row where codes do
// not pay: at most 16 B a row, and usually under 2. Any other reply is a
// small JSON object.
const (
	replyBytesPerRow = 16
	replyAllowance   = 1 << 20
)

// readReply reads a reply body of at most limit bytes. The buffer is sized
// once, from Content-Length (unknown: grown as read), so a large binary reply
// is not regrown by doubling; a longer reply, or a Content-Length claiming
// one, is an error, which the retry policy treats as a failed attempt.
func readReply(body io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		return nil, fmt.Errorf("Content-Length %d exceeds the %d-byte limit", contentLength, limit)
	}
	buf := bytes.NewBuffer(make([]byte, 0, max(contentLength, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(body, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("longer than the %d-byte limit", limit)
	}
	return buf.Bytes(), nil
}

// shipFrame PUTs the frame body to a worker (first touch co-location).
func (c *Coordinator) shipFrame(ctx context.Context, w *remoteWorker, frame *Frame) error {
	id, body, err := frame.Payload()
	if err != nil {
		return terminalError{err}
	}
	_, ssp := obs.Start(ctx, "ship_frame")
	defer ssp.End()
	ssp.Set("worker", w.id)
	ssp.Set("bytes", len(body))
	status, raw, err := c.roundTrip(ctx, w, fault.PointFrameShip, http.MethodPut, pathFrames+id, body, replyAllowance)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		e := httpapi.ReadError(status, raw)
		if p := frame.parent; p != nil && status == http.StatusNotFound && e.Code == codeFrameMissing {
			// The worker evicted (or never durably held) the parent between
			// the chain ship and this PUT. Forget the parent's ledger entry
			// so the next ensureFrame re-ships the chain; the miss is
			// retryable, so the caller's retry policy drives that re-ship.
			pid, _ := p.ID() // encoded already: the child's body names it
			w.frames.Forget(pid)
		}
		return fmt.Errorf("dist: shipping frame to %s: %v", w.id, e)
	}
	obs.MeterFromContext(ctx).Charge(obs.MeterJSON{FrameBytesShipped: uint64(len(body))})
	c.framesShipped.Inc()
	c.logf("dist: shipped frame %.12s to worker %s (%d bytes)", id, w.id, len(body))
	return nil
}

// splitContiguous partitions ids into at most n contiguous chunks of
// near-equal size (the per-worker shard assignment).
func splitContiguous(ids []int, n int) [][]int {
	if n > len(ids) {
		n = len(ids)
	}
	chunks := make([][]int, 0, n)
	for w := 0; w < n; w++ {
		lo := w * len(ids) / n
		hi := (w + 1) * len(ids) / n
		if lo < hi {
			chunks = append(chunks, ids[lo:hi])
		}
	}
	return chunks
}

// EvalSpec carries one distributed what-if evaluation of a parsed query.
type EvalSpec struct {
	DB      *relation.Database
	Model   *causal.Model
	Frame   *Frame
	Query   *hyperql.WhatIf
	Options engine.Options
	// Progress, when non-nil, receives "shards" updates as remote shard
	// batches complete (the jobs layer surfaces them as shards_done/total).
	Progress engine.ProgressFunc
}

// evalOp is one distributed what-if in flight: what is being evaluated, its
// resilience scope, and the merge so far.
type evalOp struct {
	spec EvalSpec
	text string     // the query's canonical text, which every worker parses
	run  *queryRun  // budget, bad set, degradation ladder
	plan shard.Plan // the canonical plan: shard ids 0..plan.Shards()-1 are scattered

	// The merge so far; take is never called concurrently.
	partials   []engine.ShardPartial
	meta       engine.PartialMeta
	usedRemote map[string]bool
	localDone  int
}

// replyLimit is the byte limit of a worker's reply to an eval of shards:
// replyBytesPerRow for each of their rows, plus replyAllowance.
func (op *evalOp) replyLimit(shards []int) int64 {
	rows := 0
	for _, s := range shards {
		lo, hi := op.plan.Bounds(s)
		rows += hi - lo
	}
	return replyBytesPerRow*int64(rows) + replyAllowance
}

// take adds one partial result — a worker's reply or the local fallback's —
// to the merge, holding its metadata to what came before.
func (op *evalOp) take(from string, pr *engine.PartialResult) error {
	if len(op.partials) == 0 {
		op.meta = pr.Meta
	} else if !op.meta.Consistent(pr.Meta) {
		return fmt.Errorf("dist: worker %s evaluation metadata diverges from the merged plan (determinism violation): %+v vs %+v",
			from, pr.Meta, op.meta)
	} else if pr.Meta.TrainedModels > op.meta.TrainedModels {
		// Diagnostics only: each worker trains the models its shards
		// demanded; report the widest set.
		op.meta.TrainedModels = pr.Meta.TrainedModels
	}
	op.partials = append(op.partials, pr.Partials...)
	if op.spec.Progress != nil {
		op.spec.Progress("shards", len(op.partials), op.plan.Shards())
	}
	return nil
}

// shapeError says how a reply fails to hold exactly its chunk's shards, in
// order (nil when it does): a wrong reply must name its worker here, not
// surface later as an anonymous merge failure.
func shapeError(resp *EvalResponse, chunk []int) error {
	if len(resp.Partials) != len(chunk) {
		return fmt.Errorf("%d partials for %d shards", len(resp.Partials), len(chunk))
	}
	for i, s := range chunk {
		if got := resp.Partials[i].Shard; got != s {
			return fmt.Errorf("partial %d is shard %d, asked for shard %d", i, got, s)
		}
	}
	return nil
}

// scatter drives the evaluation's dispatch: the pending shard ids go out in
// rounds of contiguous chunks, one per assignable worker (sorted by id) and
// each on its own goroutine under a worker_eval span. A reply is grafted,
// metered, shape-checked and taken into the merge. A terminal error or
// cancellation ends the operation; a worker the retry policy gave up on is
// excluded and its chunk requeues onto the survivors in the next round; with
// no assignable worker left the coordinator process evaluates what is pending
// — same plan, same partials, same merge.
func (c *Coordinator) scatter(ctx context.Context, op *evalOp) error {
	// A frame that cannot be encoded has no id; postWorker reports it.
	frameID, _ := op.spec.Frame.ID()
	pending := make([]int, op.plan.Shards())
	for i := range pending {
		pending[i] = i
	}
	for round := 0; len(pending) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ws := c.assignable(op.run)
		if len(ws) == 0 {
			op.run.note(degradeLocalFallback)
			c.localFallbacks.Inc()
			lopts := op.spec.Options
			lopts.Progress = nil
			pr, err := engine.EvaluatePartialContext(ctx, op.spec.DB, op.spec.Model, op.spec.Query, lopts, pending)
			if err != nil {
				return err
			}
			op.localDone = len(pending)
			// Metadata diverging from what a worker already delivered surfaces
			// as the determinism violation it is, not as a confusing
			// partial-count mismatch from the merge.
			return op.take("local", pr)
		}
		var (
			mu     sync.Mutex
			failed []int
			fatal  error
			wg     sync.WaitGroup
		)
		for i, chunk := range splitContiguous(pending, len(ws)) {
			w := ws[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				wctx, wsp := obs.Start(ctx, "worker_eval")
				wsp.Set("worker", w.id)
				wsp.Set("shards", len(chunk))
				resp, err := c.postWorker(wctx, op.run, w, op.spec.Frame,
					EvalRequest{Frame: frameID, Query: op.text, Options: op.spec.Options, Shards: chunk}, op.replyLimit(chunk))
				wsp.Set("error", err != nil)
				if err == nil {
					wsp.Graft(resp.Spans)
				}
				wsp.End()
				mu.Lock()
				defer mu.Unlock()
				var term terminalError
				if err != nil && !errors.As(err, &term) && ctx.Err() == nil {
					// The retry policy gave up on this worker, not on the
					// operation: its chunk goes to the survivors.
					c.workerFailed(op.run, w, err)
					failed = append(failed, chunk...)
					return
				}
				if err == nil {
					w.breaker.onSuccess()
					// Fold the worker's cost vector into the query meter (the
					// worker_* ledger) and charge the coordinator-side ledger;
					// the two must agree when retries == 0.
					meter := obs.MeterFromContext(ctx)
					meter.Fold(resp.Meter)
					if serr := shapeError(resp, chunk); serr != nil {
						err = fmt.Errorf("dist: worker %s eval shape mismatch (%v)", w.id, serr)
					} else {
						meter.Charge(obs.MeterJSON{RemoteShards: uint64(len(chunk))})
						op.usedRemote[w.id] = true
						err = op.take(w.id, &resp.PartialResult)
					}
				}
				if err != nil && fatal == nil {
					fatal = err
				}
			}()
		}
		wg.Wait()
		if fatal != nil {
			return fatal
		}
		if len(failed) > 0 {
			sort.Ints(failed)
			c.requeues.Inc()
			c.logf("dist: requeueing %d shards of %s after worker loss (round %d)", len(failed), pathEval, round)
		}
		pending = failed
	}
	return nil
}

// EvaluateWhatIf runs one what-if query with its plan shards distributed
// over the live workers. The canonical plan is resolved locally (the view is
// cached, and the query's names resolve against it first), contiguous shard
// ranges go to the workers sorted by id with the query's canonical text,
// rendered once, lost workers' ranges are requeued onto the survivors — or
// evaluated locally when none remain — and the partials reduce in plan
// order, making the result bit-identical to a local run for every membership
// history.
func (c *Coordinator) EvaluateWhatIf(ctx context.Context, spec EvalSpec) (*engine.Result, error) {
	start := time.Now()
	planShards, viewRows, err := engine.PlanContext(ctx, spec.DB, spec.Model, spec.Query, spec.Options)
	if err != nil {
		return nil, err
	}
	if planShards == 0 {
		// Empty view: nothing to distribute.
		return engine.EvaluateContext(ctx, spec.DB, spec.Model, spec.Query, spec.Options)
	}
	// dist_eval is the distributed fan-out's span: one worker_eval child per
	// assigned shard range (grafting the worker's own tree when it returned
	// one), so a traced distributed query reads as a single end-to-end tree.
	ctx, dsp := obs.Start(ctx, "dist_eval")
	defer dsp.End()
	dsp.Set("plan", planShards)
	op := &evalOp{
		spec: spec, text: spec.Query.String(), run: newQueryRun(), plan: shard.Rows(viewRows, spec.Options.ShardRows),
		partials:   make([]engine.ShardPartial, 0, planShards),
		usedRemote: map[string]bool{},
	}
	if err := c.scatter(ctx, op); err != nil {
		return nil, err
	}

	res, err := engine.MergePartials(op.meta, op.partials)
	if err != nil {
		return nil, err
	}
	res.Placement = "workers"
	res.RemoteWorkers = len(op.usedRemote)
	res.ShardWorkers = len(op.usedRemote)
	if res.ShardWorkers == 0 {
		res.ShardWorkers = 1
	}
	res.Total = time.Since(start)
	res.EvalTime = res.Total
	res.Degraded, res.DegradedReason = op.run.degraded()
	dsp.Set("workers", len(op.usedRemote))
	dsp.Set("local_shards", op.localDone)
	if res.Degraded {
		dsp.Set("degraded", res.DegradedReason)
	}
	c.remoteEvals.Inc()
	c.remoteShards.Add(planShards - op.localDone)
	return res, nil
}
