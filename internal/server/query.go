package server

import (
	"cmp"
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"hyper"
	"hyper/internal/dist"
	"hyper/internal/engine"
	"hyper/internal/fault"
	"hyper/internal/httpapi"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/shard"
)

// QueryRequest targets one session with one HypeRQL query. The zero Method
// runs the default engine for the query kind.
type QueryRequest struct {
	// Session names the target session. The route's path
	// (POST /v1/sessions/{name}/whatif etc.) is authoritative; a non-empty
	// body session that disagrees with it is a 400.
	Session string `json:"session,omitempty"`
	Query   string `json:"query"`
	// Method selects the how-to formulation: "" or "ip" (integer program),
	// "brute" (exhaustive Opt-HowTo), "mincost" (minimize update cost
	// subject to Target). Ignored by what-if and explain.
	Method string `json:"method,omitempty"`
	// Target is the aggregate floor for method "mincost".
	Target float64 `json:"target,omitempty"`
	// Snapshot pins the evaluation to a published session version ("as of
	// v"); 0 evaluates the head. A pinned query is byte-identical to the
	// same query against a fresh session holding that version's rows.
	Snapshot int64 `json:"snapshot,omitempty"`
	// DeltaVs, for what-if queries only, additionally evaluates the query
	// as of this version and reports the value difference in the response's
	// delta field — "what changed between v and w for this hypothetical".
	DeltaVs int64 `json:"delta_vs,omitempty"`
	// Shards caps the worker fan-out of this request's evaluation
	// (0 = the session's setting, itself defaulting to GOMAXPROCS). Purely
	// an execution knob: results are bit-identical for every value.
	Shards int `json:"shards,omitempty"`
	// Placement selects where the evaluation runs; like Shards it can never
	// change a result. "" = auto (distribute what-if plan shards over live
	// registered workers, local otherwise), "local" = this process only,
	// "workers" = distribute plan shards (what-if only; a how-to or an
	// explain always runs in this process).
	Placement string `json:"placement,omitempty"`
}

// WhatIfDelta compares one what-if evaluation across two snapshot versions.
type WhatIfDelta struct {
	// VsSnapshot is the comparison version (the request's delta_vs).
	VsSnapshot int64 `json:"vs_snapshot"`
	// VsValue is the query's value as of VsSnapshot.
	VsValue float64 `json:"vs_value"`
	// Delta is value(snapshot) - value(vs_snapshot).
	Delta float64 `json:"delta"`
}

// WhatIfResponse is the wire form of a what-if result.
type WhatIfResponse struct {
	Value         float64  `json:"value"`
	Sum           float64  `json:"sum"`
	Count         float64  `json:"count"`
	Mode          string   `json:"mode"`
	Estimator     string   `json:"estimator"`
	Backdoor      []string `json:"backdoor,omitempty"`
	Blocks        int      `json:"blocks"`
	Disjuncts     int      `json:"disjuncts"`
	ViewRows      int      `json:"view_rows"`
	UpdatedRows   int      `json:"updated_rows"`
	SampledRows   int      `json:"sampled_rows"`
	TrainedModels int      `json:"trained_models"`
	// Snapshot is the session version this evaluation saw; Delta compares
	// against another version when the request asked with delta_vs.
	Snapshot int64        `json:"snapshot,omitempty"`
	Delta    *WhatIfDelta `json:"delta,omitempty"`
	// ShardPlan/ShardWorkers report the evaluation's shard fan-out;
	// ShardedFit is true when the estimator was fitted per shard and merged.
	ShardPlan    int  `json:"shard_plan"`
	ShardWorkers int  `json:"shard_workers"`
	ShardedFit   bool `json:"sharded_fit,omitempty"`
	// Placement/RemoteWorkers report where the evaluation ran (omitted for
	// a plain local run; execution-only, never part of the result value).
	Placement     string `json:"placement,omitempty"`
	RemoteWorkers int    `json:"remote_workers,omitempty"`
	// Degraded reports that the evaluation completed on less than the full
	// worker fleet (reasons: worker_lost, quarantine, local_fallback).
	// Degradation moves work, never results — the value is still exact.
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	TotalMs        float64 `json:"total_ms"`
	// Trace is the request's rendered span tree, present only when the
	// client asked for it with ?trace=1.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func toWhatIfResponse(r *hyper.WhatIfResult) *WhatIfResponse {
	return &WhatIfResponse{
		Value:          r.Value,
		Sum:            r.Sum,
		Count:          r.Count,
		Mode:           r.Mode.String(),
		Estimator:      r.EstimatorUsed,
		Backdoor:       r.Backdoor,
		Blocks:         r.Blocks,
		Disjuncts:      r.Disjuncts,
		ViewRows:       r.ViewRows,
		UpdatedRows:    r.UpdatedRows,
		SampledRows:    r.SampledRows,
		TrainedModels:  r.TrainedModels,
		ShardPlan:      r.ShardPlan,
		ShardWorkers:   r.ShardWorkers,
		ShardedFit:     r.ShardedFit,
		Placement:      r.Placement,
		RemoteWorkers:  r.RemoteWorkers,
		Degraded:       r.Degraded,
		DegradedReason: r.DegradedReason,
		TotalMs:        float64(r.Total) / float64(time.Millisecond),
	}
}

// HowToChoice is the decision for one HOWTOUPDATE attribute.
type HowToChoice struct {
	Attr string `json:"attr"`
	// Update renders the chosen hypothetical update ("Price: 1.1x"), or
	// "no change".
	Update string  `json:"update"`
	Delta  float64 `json:"delta"`
}

// HowToResponse is the wire form of a how-to result.
type HowToResponse struct {
	Choices     []HowToChoice `json:"choices"`
	Objective   float64       `json:"objective"`
	Base        float64       `json:"base"`
	Candidates  int           `json:"candidates"`
	WhatIfEvals int           `json:"whatif_evals"`
	IPNodes     int           `json:"ip_nodes"`
	// Snapshot is the session version this evaluation saw.
	Snapshot int64   `json:"snapshot,omitempty"`
	TotalMs  float64 `json:"total_ms"`
	// Trace is the request's rendered span tree (?trace=1 only).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func toHowToResponse(r *hyper.HowToResult) *HowToResponse {
	out := &HowToResponse{
		Objective:   r.Objective,
		Base:        r.Base,
		Candidates:  r.Candidates,
		WhatIfEvals: r.WhatIfEvals,
		IPNodes:     r.IPNodes,
		TotalMs:     float64(r.Total) / float64(time.Millisecond),
	}
	for _, c := range r.Choices {
		out.Choices = append(out.Choices, HowToChoice{Attr: c.Attr, Update: c.String(), Delta: c.Delta})
	}
	return out
}

// sessionScopedQuery decodes a QueryRequest addressed by path: the route's
// {name} is authoritative, and a conflicting body session is rejected so a
// copy-pasted body can't silently target the wrong session.
func (s *Server) sessionScopedQuery(r *http.Request) (*sessionEntry, QueryRequest, error) {
	var req QueryRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, req, err
	}
	name := r.PathValue("name")
	if req.Session != "" && req.Session != name {
		return nil, req, httpapi.CodeErrorf(http.StatusBadRequest, "session_mismatch",
			"body targets session %q but the path targets %q", req.Session, name)
	}
	req.Session = name
	e, err := s.session(name)
	return e, req, err
}

// handleSessionQuery serves POST /v1/sessions/{name}/{kind}.
func (s *Server) handleSessionQuery(kind string) func(*http.Request) (any, error) {
	return func(r *http.Request) (any, error) {
		e, req, err := s.sessionScopedQuery(r)
		if err != nil {
			return nil, err
		}
		b, err := e.bind(r.Context(), kind, req)
		if err != nil {
			return nil, err
		}
		stampShape(r.Context(), e, b)
		return e.run(r.Context(), b, nil)
	}
}

// boundQuery is a query bind has checked and pinned: its kind, the
// snapshots it reads (vs is the delta_vs version, nil without one), its
// resolved syntax tree, which is all run evaluates, and, for a how-to, the
// solver its method names.
type boundQuery struct {
	kind   string
	req    QueryRequest
	sn, vs *snapshotEntry
	ast    hyperql.Query
	solve  func(context.Context, *hyper.HowToQuery, hyper.Progress) (*hyper.HowToResult, error)
}

// bind is the one check of a query hyperd accepts, however it arrives (a
// scoped route, a batch element, a job). It defaults kind
// (whatif|howto|explain, "" = whatif), resolves the snapshot and delta_vs
// pins (an unknown version is a 404), rejects delta_vs on anything but a
// what-if, a placement the kind cannot run under and an unknown how-to
// method, parses the text as its kind once and resolves every name it uses
// against the pinned snapshot (engine.Resolve; either failing is a 400). It
// counts and evaluates nothing; a view it builds or fetches is a view stage
// of ctx's trace and meter.
func (e *sessionEntry) bind(ctx context.Context, kind string, req QueryRequest) (*boundQuery, error) {
	b := &boundQuery{kind: cmp.Or(kind, "whatif"), req: req}
	var err error
	if b.sn, err = e.resolve(req.Snapshot); err != nil {
		return nil, err
	}
	if req.DeltaVs != 0 {
		if b.kind != "whatif" {
			return nil, httpapi.Errorf(http.StatusBadRequest, "delta_vs applies to what-if queries only")
		}
		if b.vs, err = e.resolve(req.DeltaVs); err != nil {
			return nil, err
		}
	}
	switch req.Placement {
	case "", "local":
	case "workers":
		if b.kind != "whatif" {
			return nil, httpapi.Errorf(http.StatusBadRequest, "placement %q applies to what-if queries only", req.Placement)
		}
	default:
		return nil, httpapi.Errorf(http.StatusBadRequest, "unknown placement %q (want local|workers)", req.Placement)
	}
	switch b.kind {
	case "whatif", "explain":
		b.ast, err = hyperql.ParseWhatIf(req.Query)
	case "howto":
		if b.solve, err = howToMethod(e.sessionFor(b.sn, req.Shards), req.Method, req.Target); err != nil {
			return nil, err
		}
		b.ast, err = hyperql.ParseHowTo(req.Query)
	default:
		return nil, httpapi.Errorf(http.StatusBadRequest, "unknown query kind %q (want whatif|howto|explain)", kind)
	}
	if err == nil {
		_, err = engine.Resolve(ctx, b.sn.sess.DB(), b.ast, b.sn.sess.EngineOptions())
	}
	if err != nil {
		return nil, httpapi.Errorf(http.StatusBadRequest, "%v", err)
	}
	return b, nil
}

// run counts a bound query and evaluates it under ctx (cancelled requests
// and cancelled jobs stop the engine mid-evaluation); progress may be nil.
// The result is a *WhatIfResponse, *HowToResponse or *ExplainResponse.
func (e *sessionEntry) run(ctx context.Context, b *boundQuery, progress hyper.Progress) (any, error) {
	e.queries.Add(1)
	switch b.kind {
	case "whatif":
		resp, err := e.whatIf(ctx, b.sn, b, progress)
		if err != nil {
			return nil, err
		}
		if b.vs != nil {
			// Both evaluations are pinned, so the delta is a pure function
			// of the two immutable versions.
			vsResp, err := e.whatIf(ctx, b.vs, b, nil)
			if err != nil {
				return nil, err
			}
			resp.Delta = &WhatIfDelta{VsSnapshot: b.vs.version, VsValue: vsResp.Value, Delta: resp.Value - vsResp.Value}
		}
		return resp, nil
	case "howto":
		res, err := b.solve(ctx, b.ast.(*hyper.HowToQuery), progress)
		if err != nil {
			return nil, queryError(ctx, err)
		}
		out := toHowToResponse(res)
		out.Snapshot = b.sn.version
		return out, nil
	default: // explain
		plan, err := b.sn.sess.Explain(ctx, b.ast.(*hyper.WhatIfQuery))
		if err != nil {
			return nil, queryError(ctx, err)
		}
		return &ExplainResponse{Plan: plan, Snapshot: b.sn.version}, nil
	}
}

// sessionFor applies a per-request shard fan-out override to a snapshot's
// session: 0 keeps the shared session; anything else derives a session
// (same database, model and cache) whose options carry the override.
func (e *sessionEntry) sessionFor(sn *snapshotEntry, shards int) *hyper.Session {
	if shards <= 0 {
		return sn.sess
	}
	return sn.sess.With(sn.sess.Options().WithShards(shards))
}

// whatIf evaluates the bound what-if b against a pinned snapshot.
// Shards > 0 overrides the session's worker fan-out for this request;
// Placement selects where the evaluation runs (results are identical
// everywhere), and "" (auto) resolves now, when the query runs: it
// distributes over the live registered workers when there are any, so a
// queued job whose workers have gone runs locally.
func (e *sessionEntry) whatIf(ctx context.Context, sn *snapshotEntry, b *boundQuery, progress hyper.Progress) (*WhatIfResponse, error) {
	var res *hyper.WhatIfResult
	var err error
	req := b.req
	sess := e.sessionFor(sn, req.Shards)
	if req.Placement == "workers" || req.Placement == "" && e.dist != nil && e.dist.WorkersAlive() > 0 {
		res, err = e.dist.EvaluateWhatIf(ctx, dist.EvalSpec{
			DB: sess.DB(), Model: sess.Model(), Frame: sn.frame,
			Query: b.ast.(*hyper.WhatIfQuery), Options: sess.EngineOptions(), Progress: progress,
		})
	} else {
		var r any
		r, err = sess.Run(fault.WithInjector(ctx, e.fault), b.ast, progress)
		res, _ = r.(*hyper.WhatIfResult)
	}
	if err != nil {
		return nil, queryError(ctx, err)
	}
	out := toWhatIfResponse(res)
	out.Snapshot = sn.version
	return out, nil
}

// howToMethod binds the formulation QueryRequest.Method names to sess.
func howToMethod(sess *hyper.Session, method string, target float64) (func(context.Context, *hyper.HowToQuery, hyper.Progress) (*hyper.HowToResult, error), error) {
	switch method {
	case "", "ip":
		return func(ctx context.Context, q *hyper.HowToQuery, progress hyper.Progress) (*hyper.HowToResult, error) {
			r, err := sess.Run(ctx, q, progress)
			res, _ := r.(*hyper.HowToResult)
			return res, err
		}, nil
	case "brute":
		return sess.HowToBruteForce, nil
	case "mincost":
		return func(ctx context.Context, q *hyper.HowToQuery, progress hyper.Progress) (*hyper.HowToResult, error) {
			return sess.HowToMinimizeCost(ctx, q, target, progress)
		}, nil
	default:
		return nil, httpapi.Errorf(http.StatusBadRequest, "unknown how-to method %q (want ip|brute|mincost)", method)
	}
}

// ExplainResponse is the wire form of an explain result.
type ExplainResponse struct {
	Plan string `json:"plan"`
	// Snapshot is the session version the plan was compiled against (the
	// plan fingerprint is version-qualified).
	Snapshot int64 `json:"snapshot,omitempty"`
	// Trace is the request's rendered span tree (?trace=1 only).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// queryError maps an evaluation failure: a cancelled/expired context
// surfaces as-is (the job layer translates it to a lifecycle state; for a
// synchronous request the client is gone anyway), anything else is a
// malformed query or unsatisfiable plan, i.e. a client error.
func queryError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return httpapi.Errorf(http.StatusBadRequest, "%v", err)
}

// BatchQuery is one element of a batch request.
type BatchQuery struct {
	// Kind is whatif|howto|explain (default whatif).
	Kind   string  `json:"kind,omitempty"`
	Query  string  `json:"query"`
	Method string  `json:"method,omitempty"`
	Target float64 `json:"target,omitempty"`
	// Snapshot pins this element to a published session version (0 = head);
	// DeltaVs additionally reports the what-if delta against that version
	// (what-if elements only). See QueryRequest.
	Snapshot int64 `json:"snapshot,omitempty"`
	DeltaVs  int64 `json:"delta_vs,omitempty"`
	// Shards overrides the evaluation fan-out for this element (see
	// QueryRequest.Shards).
	Shards int `json:"shards,omitempty"`
	// Placement selects where this element runs (see QueryRequest.Placement).
	Placement string `json:"placement,omitempty"`
}

// BatchRequest fans N queries against one session across a worker pool.
type BatchRequest struct {
	// Session names the target session (the batch route takes it from the
	// path; a conflicting body session is a 400).
	Session string       `json:"session,omitempty"`
	Queries []BatchQuery `json:"queries"`
	// Workers caps the pool for this request; 0 uses the server default,
	// and the server's BatchWorkers config is always an upper bound.
	Workers int `json:"workers,omitempty"`
}

// BatchResult is the outcome of one batch element, in request order.
type BatchResult struct {
	Index   int             `json:"index"`
	WhatIf  *WhatIfResponse `json:"whatif,omitempty"`
	HowTo   *HowToResponse  `json:"howto,omitempty"`
	Plan    string          `json:"plan,omitempty"`
	Error   string          `json:"error,omitempty"`
	TotalMs float64         `json:"total_ms"`
}

// BatchResponse reports all element results plus wall-clock totals.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Errors  int           `json:"errors"`
	Workers int           `json:"workers"`
	TotalMs float64       `json:"total_ms"`
	// Trace is the request's rendered span tree (?trace=1 only).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

func (s *Server) handleSessionBatch(r *http.Request) (any, error) {
	var req BatchRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, err
	}
	name := r.PathValue("name")
	if req.Session != "" && req.Session != name {
		return nil, httpapi.CodeErrorf(http.StatusBadRequest, "session_mismatch",
			"body targets session %q but the path targets %q", req.Session, name)
	}
	req.Session = name
	e, err := s.session(name)
	if err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, httpapi.Errorf(http.StatusBadRequest, "batch has no queries")
	}
	return e.runBatch(r.Context(), req.Queries, s.batchWorkers(req.Workers), nil), nil
}

// batchWorkers clamps a request's worker ask to the server bound.
func (s *Server) batchWorkers(want int) int {
	if want <= 0 || want > s.cfg.BatchWorkers {
		return s.cfg.BatchWorkers
	}
	return want
}

// batchElem is one batch element after bind: the bound query, or the error
// it failed to bind with.
type batchElem struct {
	q   *boundQuery
	err error
}

// bindBatch binds every element of a batch. An element's own snapshot and
// shards win; 0 takes pin's version and shards, so the elements that name no
// version all read pin.
func (e *sessionEntry) bindBatch(ctx context.Context, queries []BatchQuery, pin *snapshotEntry, shards int) []batchElem {
	elems := make([]batchElem, len(queries))
	for i, q := range queries {
		elems[i].q, elems[i].err = e.bind(ctx, q.Kind, QueryRequest{
			Query: q.Query, Method: q.Method, Target: q.Target,
			Snapshot: cmp.Or(q.Snapshot, pin.version), DeltaVs: q.DeltaVs,
			Shards: cmp.Or(q.Shards, shards), Placement: q.Placement,
		})
	}
	return elems
}

// runBatch is the synchronous batch: it binds every element against the
// head as of now, so head means head at arrival for all of them and an
// element that fails to bind fails on its own, then runs them.
func (e *sessionEntry) runBatch(ctx context.Context, queries []BatchQuery, workers int, progress hyper.Progress) *BatchResponse {
	elems := e.bindBatch(ctx, queries, e.head(), 0)
	stampBatchShape(ctx, e, elems)
	return e.runBound(ctx, elems, workers, progress)
}

// runBound fans bound batch elements across a bounded worker pool, one
// shard.Run shard per element. ctx cancellation stops in-flight evaluations
// (their elements report the context error) and skips unstarted ones, which
// report it too; progress, when non-nil, counts completed elements. It is
// shared by the synchronous batch and batch jobs.
func (e *sessionEntry) runBound(ctx context.Context, elems []batchElem, workers int, progress hyper.Progress) *BatchResponse {
	start := time.Now()
	plan := shard.Rows(len(elems), 1)
	results := make([]BatchResult, len(elems))
	started := make([]bool, len(elems))
	var done atomic.Int64
	err := shard.Run(ctx, plan, workers, func(_, i, _, _ int) error {
		started[i] = true
		results[i] = e.runBatchQuery(ctx, i, elems[i])
		if progress != nil {
			progress("queries", int(done.Add(1)), len(elems))
		}
		return nil
	})
	resp := &BatchResponse{
		Results: results,
		Workers: plan.Workers(workers),
		TotalMs: float64(time.Since(start)) / float64(time.Millisecond),
	}
	for i := range results {
		if !started[i] { // only a cancelled ctx skips an element, and Run returns its error
			results[i] = BatchResult{Index: i, Error: err.Error()}
		}
		if results[i].Error != "" {
			resp.Errors++
		}
	}
	return resp
}

// runBatchQuery evaluates one batch element, converting failures into the
// element's error field so one bad query cannot sink its siblings.
func (e *sessionEntry) runBatchQuery(ctx context.Context, i int, el batchElem) BatchResult {
	start := time.Now()
	out := BatchResult{Index: i}
	var res any
	err := el.err
	if err == nil {
		res, err = e.run(ctx, el.q, nil)
	}
	if err != nil {
		out.Error = err.Error()
	} else {
		switch res := res.(type) {
		case *WhatIfResponse:
			out.WhatIf = res
		case *HowToResponse:
			out.HowTo = res
		case *ExplainResponse:
			out.Plan = res.Plan
		}
	}
	out.TotalMs = float64(time.Since(start)) / float64(time.Millisecond)
	return out
}
