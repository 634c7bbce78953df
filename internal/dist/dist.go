// Package dist is HypeR's distribution substrate: a coordinator/worker
// shard transport that promotes the canonical shard plans of internal/shard
// from an in-process pool to a cluster-wide unit of work, with the same
// determinism contract the local path pins — distributed evaluation is
// bit-identical to a single-process `Shards=N` run.
//
// The division of labour:
//
//   - A worker (cmd/hyperd -worker) holds content-addressed frames (one
//     snapshot version of a session's database + causal model each, shipped
//     on first touch; a frame's body is its rows past its parent frame,
//     frame.go), serves one stateless computation over them: per-shard
//     what-if evaluation (engine.EvaluatePartialContext → class-coded rows
//     or block-window partials), and keeps itself registered with a
//     coordinator (Join).
//
//   - The coordinator registers workers (registration + heartbeats with a
//     lease TTL), assigns contiguous plan shard ranges to the live workers,
//     ships a session's frame to a worker on its first miss (co-locating
//     the frame with its shards; later queries hit the worker's warm frame
//     cache), and reduces the returned partials strictly in plan order via
//     engine.MergePartials. Shards of a worker lost mid-evaluation are
//     requeued onto the surviving workers, or evaluated locally when none
//     survive — the reduction order never depends on who computed what, so
//     failures move work without moving results.
//
// Scattering what-if plan shards is the one distributed operation (estimator
// fits stay in the process that needs them: the only shard-mergeable
// estimator is the cheap one, and a round trip costs more than its fit), and
// each job around it has one mechanism:
//
//   - scatter is the coordinator's dispatch loop: shard ids go out in rounds
//     of contiguous chunks over the assignable workers, every reply is
//     grafted, metered and checked to hold exactly its chunk's shards before
//     it joins the merge, a worker the retry policy gave up on is excluded
//     and its chunk requeued (one log line, one hyper_dist_requeues_total
//     tick), and with no worker left the coordinator evaluates the pending
//     shards itself.
//
//   - roundTrip is the one coordinator→worker HTTP exchange (secret, trace
//     header, fault point): postWorker sends an eval request's bytes through
//     it under the retry policy, shipFrame a frame body. The other direction,
//     registration and heartbeats, is the worker's Join.
//
//   - Each registered worker's shipped-frame ledger is an unbounded
//     internal/lru cache whose single-flight build is the ship: a hit means
//     shipped, concurrent cold requests share one upload, a failed ship
//     records nothing, and a worker's frame_missing answer Forgets the entry
//     so the next dispatch ships again. The ledger is checked before the
//     frame's ancestors, so a warm dispatch never walks the version chain.
//
// Everything on the wire is JSON except the eval reply, whose partials travel
// as raw float64 bits behind a JSON header (evalreply.go): it is as large as
// the view, and JSON cannot carry NaN or ±Inf. Both ends re-derive the
// deterministic parts of an evaluation (plan, block decomposition, estimator
// choice, training) from the same frame + query + semantic options; the
// coordinator cross-checks the workers' evaluation metadata and fails loudly
// on any disagreement rather than merging diverging partials.
package dist

import (
	"crypto/subtle"
	"net/http"
	"strings"

	"hyper/internal/engine"
	"hyper/internal/httpapi"
	"hyper/internal/obs"
)

// Protocol paths. Worker-side endpoints are served by Worker.Handler;
// coordinator-side registration endpoints by Coordinator.Handler.
const (
	pathFrames  = "/dist/v1/frames/" // + frame id (PUT)
	pathEval    = "/dist/v1/eval"
	pathWorkers = "/dist/v1/workers" // coordinator: register/beat/list
)

// codeFrameMissing is the machine-readable error code a worker returns when
// it is asked to evaluate against a frame it has not seen; the coordinator
// reacts by shipping the frame and retrying (frame shipping on first touch).
const codeFrameMissing = "frame_missing"

// EvalRequest asks a worker to evaluate the listed plan shards of a what-if
// query against a previously shipped frame.
type EvalRequest struct {
	Frame string `json:"frame"`
	Query string `json:"query"`
	// Options travel in their JSON form; the worker attaches its own
	// per-frame cache and keeps no plan cache, which changes nothing it
	// computes (the engine compiles the WHEN program once per query shape per
	// frame, inside the Prepared that frame's cache holds).
	Options engine.Options `json:"options"`
	Shards  []int          `json:"shards"`
}

// EvalResponse is the worker's answer to an eval: the engine's partial
// result, then what the request cost. Spans is the worker-local span tree,
// present when the coordinator asked for tracing by stamping the
// X-Hyper-Trace-Id header on the request: the coordinator grafts it under its
// per-worker span, stitching one end-to-end trace across processes (span
// timestamps are the worker's clock — durations are the authoritative
// numbers — and tracing never touches the computed parts). Meter is the
// worker-side cost vector of the request (shards run, tuples evaluated, fits,
// bytes received); the coordinator folds it into the query's meter — the
// worker_* ledger the reconciliation invariant checks against the
// coordinator's own shipped/dispatched totals. It travels in the binary
// layout of evalreply.go, not as JSON.
type EvalResponse struct {
	engine.PartialResult
	Spans *obs.SpanJSON
	Meter *obs.MeterJSON
}

// RegisterRequest announces a worker to the coordinator. URL is the base
// address the coordinator dials back (scheme://host:port).
type RegisterRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// WorkerInfo describes one registered worker (GET /dist/v1/workers and the
// /v1/stats dist gauges).
type WorkerInfo struct {
	ID          string  `json:"id"`
	URL         string  `json:"url"`
	Alive       bool    `json:"alive"`
	LastBeatMs  float64 `json:"last_beat_ms"`
	Frames      int     `json:"frames"`                // frames confirmed shipped to this worker
	Quarantined bool    `json:"quarantined,omitempty"` // circuit open, in cooldown
	Fails       int     `json:"fails,omitempty"`       // consecutive dispatch failures
}

// setSecret attaches the shared dist secret (when configured) as a bearer
// token.
func setSecret(r *http.Request, secret string) {
	if secret != "" {
		r.Header.Set("Authorization", "Bearer "+secret)
	}
}

// guarded gates fn behind the shared dist secret: a request that does not
// present it is a 401. An empty configured secret disables the check
// (trusted-network deployments; the default). The comparison is
// constant-time so the secret cannot be guessed byte by byte.
func guarded(secret string, fn httpapi.Func) httpapi.Func {
	return func(r *http.Request) (any, error) {
		got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if secret != "" && subtle.ConstantTimeCompare([]byte(got), []byte(secret)) != 1 {
			return nil, httpapi.Errorf(http.StatusUnauthorized, "missing or invalid dist secret")
		}
		return fn(r)
	}
}
