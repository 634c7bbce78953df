package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// pollJob fetches a job until pred is satisfied or the timeout passes.
func pollJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, pred func(JobInfo) bool) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var info JobInfo
	for time.Now().Before(deadline) {
		if code := do(t, "GET", ts.URL+"/v1/jobs/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("poll job %s: status %d", id, code)
		}
		if pred(info) {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never satisfied predicate; last state %q progress %+v", id, info.State, info.Progress)
	return JobInfo{}
}

func terminal(info JobInfo) bool {
	switch info.State {
	case "done", "failed", "cancelled", "expired":
		return true
	}
	return false
}

// slowHowTo is a brute-force how-to over german-cont whose ~8100
// combination evaluations take several seconds — enough runway to observe
// it mid-solve and cancel it. (Submit with method "brute".)
const slowHowTo = `USE German HOWTOUPDATE Status, Savings, Housing, Duration, InstallmentRate TOMAXIMIZE COUNT(Credit = 1)`

// createContSession makes a german-cont session (continuous Duration and
// InstallmentRate, so slowHowTo has bucketized candidates) named name.
func createContSession(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	var info SessionInfo
	code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:    name,
		Dataset: "german-cont",
		Scale:   0.3,
		Options: &SessionOptions{Mode: "full", Seed: 7},
	}, &info)
	if code != http.StatusOK {
		t.Fatalf("create german-cont session: status %d", code)
	}
}

// TestJobSubmitPollComplete drives the happy path end to end: a how-to job
// against a real session is submitted, polled through queued/running, and
// completes with the same result the synchronous endpoint returns.
func TestJobSubmitPollComplete(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	const query = `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	var sync HowToResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/howto", QueryRequest{Query: query}, &sync); code != http.StatusOK {
		t.Fatalf("sync howto: status %d", code)
	}

	var submitted JobInfo
	code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "g", Kind: "howto", Query: query, Priority: 3,
	}, &submitted)
	if code != http.StatusOK {
		t.Fatalf("submit: status %d (%+v)", code, submitted)
	}
	if submitted.ID == "" || submitted.Session != "g" || submitted.Kind != "howto" || submitted.Priority != 3 {
		t.Fatalf("submitted info = %+v", submitted)
	}
	if submitted.State != "queued" && submitted.State != "running" && submitted.State != "done" {
		t.Fatalf("fresh job state = %q", submitted.State)
	}

	done := pollJob(t, ts, submitted.ID, 30*time.Second, terminal)
	if done.State != "done" || done.Error != "" {
		t.Fatalf("job finished as %q (error %q)", done.State, done.Error)
	}
	res, ok := done.Result.(map[string]any)
	if !ok {
		t.Fatalf("job result has type %T", done.Result)
	}
	if obj, ok := res["objective"].(float64); !ok || obj != sync.Objective {
		t.Errorf("async objective = %v, sync = %v", res["objective"], sync.Objective)
	}
	if done.StartedAt == nil || done.FinishedAt == nil || done.RunMs <= 0 {
		t.Errorf("timing fields missing: %+v", done)
	}
	if done.Progress.Done == 0 {
		t.Errorf("completed job reported no progress: %+v", done.Progress)
	}

	// The job shows up in listings (without its result payload).
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	do(t, "GET", ts.URL+"/v1/jobs?session=g&state=done", nil, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != submitted.ID {
		t.Fatalf("job listing = %+v", list.Jobs)
	}
	if list.Jobs[0].Result != nil {
		t.Error("listing should omit result payloads")
	}
}

// TestJobCancelMidSolve is the acceptance scenario: a long brute-force
// how-to job on a real session is cancelled mid-run via DELETE /v1/jobs/{id};
// the cancel is observed inside the solver, so the job goes terminal long
// before the remaining combinations could have been evaluated.
func TestJobCancelMidSolve(t *testing.T) {
	ts := newTestServer(t, Config{})
	createContSession(t, ts, "g")

	// ~5*5*4*9*9 = 8100 combinations, each a what-if evaluation: far more
	// work than can finish while we poll for the first progress report.
	var job JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "g", Kind: "howto", Method: "brute", Query: slowHowTo,
	}, &job); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}

	// Wait until the solver demonstrably made progress (it is mid-solve).
	running := pollJob(t, ts, job.ID, 30*time.Second, func(i JobInfo) bool {
		return i.State == "running" && i.Progress.Done >= 1
	})
	if running.Progress.Stage != "combos" {
		t.Errorf("progress stage = %q, want combos", running.Progress.Stage)
	}

	cancelAt := time.Now()
	var cancelled JobInfo
	if code := do(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	final := pollJob(t, ts, job.ID, 10*time.Second, terminal)
	promptness := time.Since(cancelAt)
	if final.State != "cancelled" {
		t.Fatalf("final state = %q, want cancelled", final.State)
	}
	// The cancel must be observed inside the solver: terminal well before
	// the full combination sweep (thousands of evaluations) could run.
	if promptness > 5*time.Second {
		t.Errorf("cancel took %s to be observed", promptness)
	}
	if final.Progress.Total > 0 && final.Progress.Done >= final.Progress.Total {
		t.Errorf("job claims full progress (%d/%d) despite cancellation",
			final.Progress.Done, final.Progress.Total)
	}

	// The session (and its artifact cache) stays consistent: the same
	// session answers the synchronous endpoint normally afterwards.
	var res WhatIfResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanCount}, &res); code != http.StatusOK {
		t.Fatalf("post-cancel whatif: status %d", code)
	}
	if res.Value <= 0 {
		t.Errorf("post-cancel whatif degenerate: %+v", res)
	}

	var stats StatsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Jobs.Cancelled != 1 {
		t.Errorf("stats cancelled = %d, want 1", stats.Jobs.Cancelled)
	}
}

// TestJobQueueOverflow429 pins the admission-control acceptance criterion:
// overflowing the bounded queue returns HTTP 429 with a structured error
// body.
func TestJobQueueOverflow429(t *testing.T) {
	ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 2, JobsPerSession: -1})
	createContSession(t, ts, "g")

	// One long-running job occupies the single worker; two more fill the
	// queue. (The runner holds the worker long enough for the overflow
	// submission below; all are cancelled at the end.)
	var ids []string
	for i := 0; i < 3; i++ {
		var job JobInfo
		if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
			Session: "g", Kind: "howto", Method: "brute", Query: slowHowTo,
		}, &job); code != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, job.ID)
		if i == 0 {
			// Only once the worker has taken it does the queue hold two more.
			pollJob(t, ts, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State == "running" })
		}
	}

	var errBody struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Query: germanCount}, &errBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", code)
	}
	if errBody.Code != "queue_full" || errBody.Error == "" {
		t.Fatalf("overflow body = %+v, want structured queue_full error", errBody)
	}

	var stats StatsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Jobs.Rejected != 1 {
		t.Errorf("stats rejected = %d, want 1", stats.Jobs.Rejected)
	}
	if stats.Jobs.Queued != 2 {
		t.Errorf("stats queued = %d, want 2", stats.Jobs.Queued)
	}

	for _, id := range ids {
		do(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil, nil)
	}
}

// TestJobPerSessionLimit429 pins the session fairness cap.
func TestJobPerSessionLimit429(t *testing.T) {
	ts := newTestServer(t, Config{JobWorkers: 1, JobsPerSession: 1})
	createContSession(t, ts, "g")

	var first JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "g", Kind: "howto", Method: "brute", Query: slowHowTo,
	}, &first); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	var errBody struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Query: germanCount}, &errBody)
	if code != http.StatusTooManyRequests || errBody.Code != "session_limit" {
		t.Fatalf("status %d body %+v, want 429/session_limit", code, errBody)
	}
	do(t, "DELETE", ts.URL+"/v1/jobs/"+first.ID, nil, nil)
}

// TestJobDeadlineExpires submits a heavy job with a tiny timeout and
// expects the expired state.
func TestJobDeadlineExpires(t *testing.T) {
	ts := newTestServer(t, Config{})
	createContSession(t, ts, "g")
	var job JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "g", Kind: "howto", Method: "brute", Query: slowHowTo, TimeoutMs: 50,
	}, &job); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if job.DeadlineAt == nil {
		t.Fatal("deadline not recorded")
	}
	final := pollJob(t, ts, job.ID, 30*time.Second, terminal)
	if final.State != "expired" {
		t.Fatalf("state = %q, want expired", final.State)
	}
}

// TestJobKinds exercises the whatif, explain and batch job kinds.
func TestJobKinds(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	var wj JobInfo
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Query: germanCount}, &wj)
	final := pollJob(t, ts, wj.ID, 30*time.Second, terminal)
	if final.State != "done" || final.Kind != "whatif" {
		t.Fatalf("whatif job: %+v", final)
	}
	res := final.Result.(map[string]any)
	if v, _ := res["value"].(float64); v <= 0 {
		t.Errorf("whatif job value = %v", res["value"])
	}

	var ej JobInfo
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Kind: "explain", Query: germanCount}, &ej)
	final = pollJob(t, ts, ej.ID, 30*time.Second, terminal)
	if final.State != "done" {
		t.Fatalf("explain job: %+v", final)
	}
	if plan, _ := final.Result.(map[string]any)["plan"].(string); plan == "" {
		t.Error("explain job returned empty plan")
	}

	var bj JobInfo
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "g", Kind: "batch",
		// The second element binds, then fails in evaluation: a FOR literal
		// may mix POST with one PRE attribute only.
		Queries: []BatchQuery{{Query: germanCount}, {Query: `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR POST(Credit) = PRE(Age) + PRE(Sex)`}},
	}, &bj)
	final = pollJob(t, ts, bj.ID, 30*time.Second, terminal)
	if final.State != "done" {
		t.Fatalf("batch job: %+v", final)
	}
	bres := final.Result.(map[string]any)
	if errs, _ := bres["errors"].(float64); errs != 1 {
		t.Errorf("batch job errors = %v, want 1 (the element mixing two PRE attributes)", bres["errors"])
	}
	if final.Progress.Stage != "queries" || final.Progress.Done != 2 {
		t.Errorf("batch progress = %+v, want queries 2/2", final.Progress)
	}
}

// TestDeleteSessionCancelsJobs pins that dropping a session cancels its
// live jobs.
func TestDeleteSessionCancelsJobs(t *testing.T) {
	ts := newTestServer(t, Config{JobWorkers: 1})
	createContSession(t, ts, "g")
	var job JobInfo
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Kind: "howto", Method: "brute", Query: slowHowTo}, &job)
	pollJob(t, ts, job.ID, 30*time.Second, func(i JobInfo) bool { return i.State == "running" })

	var del map[string]any
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/g", nil, &del); code != http.StatusOK {
		t.Fatalf("delete session: status %d", code)
	}
	if n, _ := del["jobs_cancelled"].(float64); n != 1 {
		t.Errorf("jobs_cancelled = %v, want 1", del["jobs_cancelled"])
	}
	final := pollJob(t, ts, job.ID, 10*time.Second, terminal)
	if final.State != "cancelled" {
		t.Errorf("job state after session delete = %q, want cancelled", final.State)
	}
}

// TestServerDrain pins the graceful-shutdown contract at the server layer:
// draining stops admission, cancels queued jobs, and waits for running ones.
func TestServerDrain(t *testing.T) {
	srv := New(Config{JobWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	createContSession(t, ts, "g")

	// A long brute job that will be running, plus one queued behind it.
	var running, queued JobInfo
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Kind: "howto", Method: "brute", Query: slowHowTo}, &running)
	pollJob(t, ts, running.ID, 30*time.Second, func(i JobInfo) bool { return i.State == "running" })
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Query: germanCount}, &queued)

	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = srv.Drain(drainCtx) // deadline forces cancellation of the running brute job

	var final JobInfo
	do(t, "GET", ts.URL+"/v1/jobs/"+queued.ID, nil, &final)
	if final.State != "cancelled" {
		t.Errorf("queued job state = %q, want cancelled", final.State)
	}
	do(t, "GET", ts.URL+"/v1/jobs/"+running.ID, nil, &final)
	if final.State != "cancelled" {
		t.Errorf("running job state = %q, want cancelled after forced drain", final.State)
	}

	// Post-drain submissions get 503 with the draining code.
	var errBody struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Query: germanCount}, &errBody)
	if code != http.StatusServiceUnavailable || errBody.Code != "draining" {
		t.Errorf("post-drain submit: status %d body %+v, want 503/draining", code, errBody)
	}
	// Other endpoints keep serving (clients poll final states during drain).
	if code := do(t, "GET", ts.URL+"/v1/jobs/"+running.ID, nil, nil); code != http.StatusOK {
		t.Errorf("post-drain poll: status %d", code)
	}
}
