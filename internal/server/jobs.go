package server

import (
	"cmp"
	"context"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"hyper/internal/httpapi"
	"hyper/internal/jobs"
)

// JobRequest submits one asynchronous query job against a session.
type JobRequest struct {
	Session string `json:"session"`
	// Kind is whatif|howto|explain|batch (default whatif).
	Kind  string `json:"kind,omitempty"`
	Query string `json:"query,omitempty"`
	// Method/Target configure how-to jobs (see QueryRequest).
	Method string  `json:"method,omitempty"`
	Target float64 `json:"target,omitempty"`
	// Snapshot pins the job to a published session version, resolved at
	// submission time — appends that land while the job is queued or running
	// can never change what it evaluates. 0 pins the head as of submission.
	Snapshot int64 `json:"snapshot,omitempty"`
	// DeltaVs reports the what-if delta against this version (whatif jobs
	// only; see QueryRequest.DeltaVs).
	DeltaVs int64 `json:"delta_vs,omitempty"`
	// Queries and Workers configure batch jobs (see BatchRequest). A batch
	// job reads Snapshot and Shards as its elements' defaults and no other
	// single-query field; each element carries its own.
	Queries []BatchQuery `json:"queries,omitempty"`
	Workers int          `json:"workers,omitempty"`
	// Shards overrides the evaluation fan-out for the job (see
	// QueryRequest.Shards).
	Shards int `json:"shards,omitempty"`
	// Placement selects where the job's evaluation runs (see
	// QueryRequest.Placement); distributed jobs report remote shard
	// completion through the same shards_done/shards_total progress gauge.
	Placement string `json:"placement,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a priority.
	Priority int `json:"priority,omitempty"`
	// TimeoutMs, when > 0, sets the job deadline timeout ms after
	// submission; a job still queued or running at the deadline expires.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// JobProgress is the wire form of a job's progress counters.
type JobProgress struct {
	// Stage is "tuples" (what-if), "candidates" (how-to scoring), "combos"
	// (brute force) or "queries" (batch).
	Stage string `json:"stage,omitempty"`
	Done  int64  `json:"done"`
	// Total <= 0 means unknown.
	Total int64 `json:"total"`
	// ShardsDone/ShardsTotal track the engine's shard fan-out within the
	// current evaluation (omitted until a sharded stage reports).
	ShardsDone  int64 `json:"shards_done,omitempty"`
	ShardsTotal int64 `json:"shards_total,omitempty"`
}

// JobInfo is the wire form of a job snapshot.
type JobInfo struct {
	ID      string `json:"id"`
	Session string `json:"session"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	// Snapshot is the session version the job pinned at submission.
	Snapshot int64 `json:"snapshot,omitempty"`
	Priority int   `json:"priority,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	DeadlineAt  *time.Time `json:"deadline_at,omitempty"`
	WaitMs      float64    `json:"wait_ms"`
	RunMs       float64    `json:"run_ms"`

	Progress JobProgress `json:"progress"`

	// TraceID keys the job's execution trace in GET /v1/traces/{id}
	// (present once the job has started, when the server traces jobs).
	TraceID string `json:"trace_id,omitempty"`
	// Error is set for failed/cancelled/expired jobs.
	Error string `json:"error,omitempty"`
	// Result is the query response (WhatIfResponse, HowToResponse, explain
	// plan, or BatchResponse) once the job is done.
	Result any `json:"result,omitempty"`
}

func toJobInfo(s jobs.Snapshot) JobInfo {
	info := JobInfo{
		ID:          s.ID,
		Session:     s.Session,
		Kind:        s.Kind,
		State:       s.State.String(),
		Snapshot:    s.DataVersion,
		Priority:    s.Priority,
		SubmittedAt: s.Submitted,
		WaitMs:      float64(s.Wait()) / float64(time.Millisecond),
		RunMs:       float64(s.Run()) / float64(time.Millisecond),
		Progress: JobProgress{
			Stage: s.Stage, Done: s.Done, Total: s.Total,
			ShardsDone: s.ShardsDone, ShardsTotal: s.ShardsTotal,
		},
		TraceID: s.TraceID,
		Result:  s.Result,
	}
	if !s.Started.IsZero() {
		t := s.Started
		info.StartedAt = &t
	}
	if !s.Finished.IsZero() {
		t := s.Finished
		info.FinishedAt = &t
	}
	if !s.Deadline.IsZero() {
		t := s.Deadline
		info.DeadlineAt = &t
	}
	if s.Err != nil {
		info.Error = s.Err.Error()
	}
	return info
}

func (s *Server) handleSubmitJob(r *http.Request) (any, error) {
	var req JobRequest
	if err := httpapi.Decode(r, &req); err != nil {
		return nil, err
	}
	e, err := s.session(req.Session)
	if err != nil {
		return nil, err
	}
	// A job binds at submission, like a synchronous query on arrival: it
	// pins its data version now, so the runner evaluates that version no
	// matter how long the job queues or how many appends land meanwhile, and
	// a request that cannot run is rejected now rather than queued to fail.
	kind := cmp.Or(req.Kind, "whatif")
	var run jobs.Runner
	var version int64
	if kind == "batch" {
		if len(req.Queries) == 0 {
			return nil, httpapi.Errorf(http.StatusBadRequest, "batch job has no queries")
		}
		// The job's snapshot and shards are defaults; an element's own
		// fields win. One element that fails to bind rejects the job.
		pin, err := e.resolve(req.Snapshot)
		if err != nil {
			return nil, err
		}
		elems := e.bindBatch(r.Context(), req.Queries, pin, req.Shards)
		for i, el := range elems {
			if el.err != nil {
				status, code := httpapi.StatusOf(el.err)
				return nil, httpapi.CodeErrorf(status, code, "queries[%d]: %v", i, el.err)
			}
		}
		workers := s.batchWorkers(req.Workers)
		version = pin.version
		run = func(ctx context.Context, p *jobs.Progress) (any, error) {
			stampBatchShape(ctx, e, elems)
			return e.runBound(ctx, elems, workers, p.Report), nil
		}
	} else {
		b, err := e.bind(r.Context(), kind, QueryRequest{
			Query: req.Query, Method: req.Method, Target: req.Target,
			Snapshot: req.Snapshot, DeltaVs: req.DeltaVs, Shards: req.Shards, Placement: req.Placement,
		})
		if err != nil {
			return nil, err
		}
		version = b.sn.version
		run = func(ctx context.Context, p *jobs.Progress) (any, error) {
			stampShape(ctx, e, b)
			return e.run(ctx, b, p.Report)
		}
	}

	opts := jobs.SubmitOptions{Session: req.Session, Kind: kind, Priority: req.Priority, DataVersion: version}
	if req.TimeoutMs > 0 {
		opts.Deadline = time.Now().Add(time.Duration(req.TimeoutMs) * time.Millisecond)
	}
	j, err := s.jobs.Submit(opts, run)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		return nil, httpapi.CodeErrorf(http.StatusTooManyRequests, "queue_full",
			"job queue is full (%d queued); retry later", s.cfg.JobQueueDepth)
	case errors.Is(err, jobs.ErrSessionLimit):
		return nil, httpapi.CodeErrorf(http.StatusTooManyRequests, "session_limit",
			"session %q already has %d live jobs; retry later", req.Session, s.cfg.JobsPerSession)
	case errors.Is(err, jobs.ErrDraining):
		return nil, httpapi.CodeErrorf(http.StatusServiceUnavailable, "draining", "server is draining; not accepting jobs")
	case err != nil:
		return nil, err
	}
	// Close the race with a concurrent DELETE /v1/sessions/{name}: its
	// CancelSession may have run between our session lookup and Submit, in
	// which case this job would outlive its session uncancelled.
	if _, err := s.session(req.Session); err != nil {
		s.jobs.Cancel(j.ID())
		return nil, err
	}
	snap, _ := s.jobs.Get(j.ID())
	return toJobInfo(snap), nil
}

func (s *Server) handleGetJob(r *http.Request) (any, error) {
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return toJobInfo(snap), nil
}

func (s *Server) handleCancelJob(r *http.Request) (any, error) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Cancel(id); !ok {
		return nil, httpapi.Errorf(http.StatusNotFound, "unknown job %q", id)
	}
	snap, _ := s.jobs.Get(id)
	return toJobInfo(snap), nil
}

// JobListResponse is the GET /v1/jobs payload; Next is the cursor of the
// following page when ?limit= truncated the listing (jobs paginate by
// numeric id, the manager's stable submission order).
type JobListResponse struct {
	Jobs []JobInfo `json:"jobs"`
	Next string    `json:"next,omitempty"`
}

// jobSeq extracts the numeric suffix of a job id ("j17" -> 17). Job ids
// sort numerically, not lexicographically — "j10" comes after "j9".
func jobSeq(id string) (int64, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return n, err == nil
}

func (s *Server) handleListJobs(r *http.Request) (any, error) {
	session := r.URL.Query().Get("session")
	stateName := r.URL.Query().Get("state")
	page, err := parsePage(r)
	if err != nil {
		return nil, err
	}
	afterSeq, ok := jobSeq(page.after)
	if page.after != "" && !ok {
		return nil, errBadCursor("job cursor %q is not a job id", page.after)
	}
	var state jobs.State
	filter := false
	if stateName != "" {
		st, err := parseJobState(stateName)
		if err != nil {
			return nil, err
		}
		state, filter = st, true
	}
	snaps := s.jobs.List(session, state, filter)
	next := ""
	if page.active() {
		// Pagination runs in numeric-id order — the stable submission order
		// a cursor can resume in. The unpaginated listing keeps the
		// manager's native order.
		seq := func(sn jobs.Snapshot) int64 { n, _ := jobSeq(sn.ID); return n }
		sort.Slice(snaps, func(i, j int) bool { return seq(snaps[i]) < seq(snaps[j]) })
		var last int64
		if snaps, last = paginate(snaps, seq, afterSeq, page); last != 0 {
			next = snaps[len(snaps)-1].ID
		}
	}
	out := make([]JobInfo, len(snaps))
	for i, sn := range snaps {
		// Listings omit results: polling one job returns the payload.
		sn.Result = nil
		out[i] = toJobInfo(sn)
	}
	return &JobListResponse{Jobs: out, Next: next}, nil
}

func parseJobState(name string) (jobs.State, error) {
	for st := jobs.StateQueued; st <= jobs.StateExpired; st++ {
		if st.String() == strings.ToLower(name) {
			return st, nil
		}
	}
	return 0, httpapi.Errorf(http.StatusBadRequest, "unknown job state %q (want queued|running|done|failed|cancelled|expired)", name)
}
