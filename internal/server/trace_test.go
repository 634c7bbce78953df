package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hyper/internal/obs"
)

// whatIfSkeleton is the stage skeleton a traced local what-if must render
// to (children sorted lexicographically at every level): the view stage of
// bind's resolve builds or fetches the view and checks the query's names;
// prepare fetches the view again, compiles or fetches the query plan
// (server sessions always carry a plan cache), decomposes blocks, and builds
// the estimator set; eval_shards runs the tuple loop (training one fit per
// cold model, single-flight, so the fit count equals the trained-model count
// at ANY fan-out); fold reduces in plan order.
var whatIfSkeleton = regexp.MustCompile(`^whatif\(eval_shards\(fit(,fit)*\),fold,prepare\(blocks,plan,train,view\),view\)$`)

// tracedWhatIf posts one what-if with ?trace=1 to req.Session and returns
// the response.
func tracedWhatIf(t *testing.T, base string, req QueryRequest) *WhatIfResponse {
	t.Helper()
	var res WhatIfResponse
	if code := do(t, "POST", base+"/v1/sessions/"+req.Session+"/whatif?trace=1", req, &res); code != http.StatusOK {
		t.Fatalf("traced whatif: status %d", code)
	}
	if res.Trace == nil || res.Trace.Root == nil {
		t.Fatalf("?trace=1 returned no trace: %+v", res)
	}
	return &res
}

func TestWhatIfTraceSkeletonStableAcrossShards(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Two sessions so both runs start cache-cold: a warm cache trains no
	// models, which would legitimately change the fit-span count.
	createSession(t, ts, "s1")
	createSession(t, ts, "s4")

	r1 := tracedWhatIf(t, ts.URL, QueryRequest{Session: "s1", Query: germanCount, Shards: 1})
	r4 := tracedWhatIf(t, ts.URL, QueryRequest{Session: "s4", Query: germanCount, Shards: 4})

	s1 := obs.Skeleton(r1.Trace.Root)
	s4 := obs.Skeleton(r4.Trace.Root)
	if !whatIfSkeleton.MatchString(s1) {
		t.Errorf("shards=1 skeleton %q does not match the stage golden", s1)
	}
	if s1 != s4 {
		t.Errorf("span skeleton depends on the shard fan-out:\n shards=1: %s\n shards=4: %s", s1, s4)
	}
	if r1.Value != r4.Value || r1.Sum != r4.Sum {
		t.Errorf("tracing is not execution-only across fan-outs: %+v vs %+v", r1, r4)
	}

	// The eval_shards span must report the actual fan-out it ran.
	for _, res := range []*WhatIfResponse{r1, r4} {
		es := childNamed(res.Trace.Root, "eval_shards")
		if es == nil {
			t.Fatalf("no eval_shards span in %s", obs.Skeleton(res.Trace.Root))
		}
		if got := es.Attrs["workers"]; got != float64(res.ShardWorkers) {
			t.Errorf("eval_shards workers attr = %v, response reports %d", got, res.ShardWorkers)
		}
	}
}

// TestColdViewBuildIsAStage: a fresh session's first what-if builds its
// relevant view when bind resolves the query's names, and that build is a
// view stage of the request that pays for it: one view span reads
// cache_hit=false with the view's rows, and /v1/usage charges the shape's
// view stage with at least that span's time.
func TestColdViewBuildIsAStage(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	res := tracedWhatIf(t, ts.URL, QueryRequest{Session: "g", Query: germanCount})

	var views []*obs.SpanJSON
	var walk func(*obs.SpanJSON)
	walk = func(sj *obs.SpanJSON) {
		if sj.Name == "view" {
			views = append(views, sj)
		}
		for _, c := range sj.Children {
			walk(c)
		}
	}
	walk(res.Trace.Root)
	var cold []*obs.SpanJSON
	for _, v := range views {
		if v.Attrs["cache_hit"] == false {
			cold = append(cold, v)
		}
	}
	if len(cold) != 1 || cold[0].Attrs["rows"] != float64(res.ViewRows) {
		t.Fatalf("cold view spans %v (of %d view spans), want one with rows %d: %s", cold, len(views), res.ViewRows, obs.Skeleton(res.Trace.Root))
	}

	var usage UsageResponse
	if code := do(t, "GET", ts.URL+"/v1/usage/g", nil, &usage); code != http.StatusOK {
		t.Fatalf("usage: status %d", code)
	}
	if len(usage.Shapes) != 1 || usage.Shapes[0].Cost == nil {
		t.Fatalf("usage rows = %+v", usage.Shapes)
	}
	if got := usage.Shapes[0].Cost.StagesMs["view"]; got <= 0 || got < cold[0].DurMs {
		t.Errorf("usage stages_ms.view = %v, want > 0 and at least the cold build's %v ms", got, cold[0].DurMs)
	}
}

// TestExplainTracesItsPreparation: an explain prepares the query, and its
// trace and usage row say so: a traced explain on a fresh session has a
// prepare span holding the view, blocks, plan and train stages, and
// /v1/usage/{session} charges those stages.
func TestExplainTracesItsPreparation(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	var res ExplainResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/explain?trace=1", QueryRequest{Query: germanCount}, &res); code != http.StatusOK {
		t.Fatalf("traced explain: status %d", code)
	}
	if res.Trace == nil || res.Trace.Root == nil {
		t.Fatalf("?trace=1 returned no trace: %+v", res)
	}
	stages := []string{"view", "blocks", "plan", "train"}
	prep := childNamed(res.Trace.Root, "prepare")
	for _, name := range stages {
		if prep == nil || childNamed(prep, name) == nil {
			t.Fatalf("no %s stage under a prepare span: %s", name, obs.Skeleton(res.Trace.Root))
		}
	}

	var usage UsageResponse
	if code := do(t, "GET", ts.URL+"/v1/usage/g", nil, &usage); code != http.StatusOK {
		t.Fatalf("usage: status %d", code)
	}
	if len(usage.Shapes) != 1 || usage.Shapes[0].Cost == nil {
		t.Fatalf("usage rows = %+v", usage.Shapes)
	}
	for _, name := range stages {
		if _, ok := usage.Shapes[0].Cost.StagesMs[name]; !ok {
			t.Errorf("usage stages_ms %v has no %s", usage.Shapes[0].Cost.StagesMs, name)
		}
	}
}

// childNamed returns the first direct child with the given name.
func childNamed(sj *obs.SpanJSON, name string) *obs.SpanJSON {
	for _, c := range sj.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestTraceRingMetricsAndSlowLog(t *testing.T) {
	var slow strings.Builder
	var slowMu sync.Mutex
	srv := New(Config{SlowQueryMs: 1, SlowQueryLog: syncWriter{&slowMu, &slow}, Fault: slowStage(t)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	createSession(t, ts, "g")

	req, _ := json.Marshal(QueryRequest{Query: germanCount})
	resp, err := http.Post(ts.URL+"/v1/sessions/g/whatif", "application/json", strings.NewReader(string(req)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatalf("whatif response missing %s header", obs.TraceIDHeader)
	}

	// The trace ring serves the listing and the individual tree.
	var list obs.TraceList
	if code := do(t, "GET", ts.URL+"/v1/traces", nil, &list); code != http.StatusOK || len(list.Traces) == 0 {
		t.Fatalf("traces list: code %d, %d traces", code, len(list.Traces))
	}
	if list.Traces[0].ID != traceID {
		t.Errorf("newest trace id %q, want %q from the response header", list.Traces[0].ID, traceID)
	}
	var tj obs.TraceJSON
	if code := do(t, "GET", ts.URL+"/v1/traces/"+traceID, nil, &tj); code != http.StatusOK {
		t.Fatalf("trace get: %d", code)
	}
	if tj.Root == nil || tj.Root.Name != "whatif" || tj.Spans < 4 {
		t.Fatalf("trace %q malformed: %+v", traceID, tj)
	}
	if code := do(t, "GET", ts.URL+"/v1/traces/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}

	// /metrics serves Prometheus text with the core series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	raw, _ := io.ReadAll(mresp.Body)
	text := string(raw)
	for _, want := range []string{
		`hyper_requests_total{endpoint="whatif"} 1`,
		"# TYPE hyper_request_duration_ms histogram",
		`hyper_request_duration_ms_count{endpoint="whatif"} 1`,
		"hyper_sessions 1",
		"hyper_traces_recorded_total 1",
		`hyper_query_cost_shards_count{endpoint="whatif"} 1`,
		"hyper_engine_cache_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if problems := srv.Metrics().Lint(); len(problems) != 0 {
		t.Errorf("metrics lint: %v", problems)
	}

	// The 1ms threshold makes a cold 20k-row evaluation slow: the structured
	// log line must carry the same trace id.
	slowMu.Lock()
	logged := slow.String()
	slowMu.Unlock()
	var line slowQueryLine
	if err := json.Unmarshal([]byte(strings.SplitN(logged, "\n", 2)[0]), &line); err != nil {
		t.Fatalf("slow-query log line %q: %v", logged, err)
	}
	if line.Endpoint != "whatif" || line.TraceID != traceID || line.Ms <= 0 {
		t.Errorf("slow-query line %+v, want endpoint whatif, trace %q", line, traceID)
	}
}

// syncWriter serializes writes for the race detector (the server already
// serializes its own slow-log writes; the test reader needs the same lock).
type syncWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func TestDistributedTraceGraft(t *testing.T) {
	base := distTestServer(t, 2)
	if st, p := distPost(t, base, "/v1/sessions", CreateSessionRequest{
		Name: "g", Dataset: "german",
		Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil); st != http.StatusOK {
		t.Fatalf("create session: %d %s", st, p)
	}

	res := tracedWhatIf(t, base, QueryRequest{
		Session: "g", Query: `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Placement: "workers",
	})
	if res.Placement != "workers" || res.RemoteWorkers != 2 {
		t.Fatalf("placement %q remote=%d, want workers/2", res.Placement, res.RemoteWorkers)
	}
	de := childNamed(res.Trace.Root, "dist_eval")
	if de == nil {
		t.Fatalf("no dist_eval span: %s", obs.Skeleton(res.Trace.Root))
	}
	plan, _ := de.Attrs["plan"].(float64)
	if int(plan) != res.ShardPlan || plan == 0 {
		t.Fatalf("dist_eval plan attr %v, response plan %d", de.Attrs["plan"], res.ShardPlan)
	}

	// Exactly one worker_eval child per assigned worker shard range, and
	// their shard counts must reconcile with the plan.
	var workerSpans []*obs.SpanJSON
	for _, c := range de.Children {
		if c.Name == "worker_eval" {
			workerSpans = append(workerSpans, c)
		}
	}
	if len(workerSpans) != 2 {
		t.Fatalf("dist_eval has %d worker_eval children, want 2: %s", len(workerSpans), obs.Skeleton(de))
	}
	sum := 0.0
	for _, ws := range workerSpans {
		shards, ok := ws.Attrs["shards"].(float64)
		if !ok || shards <= 0 {
			t.Fatalf("worker_eval shards attr %v", ws.Attrs["shards"])
		}
		sum += shards
		if ws.Attrs["error"] != false {
			t.Errorf("worker_eval error attr %v", ws.Attrs["error"])
		}
		if rb, _ := ws.Attrs["resp_bytes"].(float64); rb <= 0 {
			t.Errorf("worker_eval resp_bytes attr %v, want the reply's size", ws.Attrs["resp_bytes"])
		}
		// The worker returned its own tree and it was grafted under the
		// coordinator's span: a single cross-process trace.
		remote := childNamed(ws, "eval")
		if remote == nil {
			t.Fatalf("worker_eval has no grafted remote tree: %s", obs.Skeleton(ws))
		}
		if childNamed(remote, "eval_shards") == nil {
			t.Errorf("remote tree has no eval_shards stage: %s", obs.Skeleton(remote))
		}
	}
	if int(sum) != res.ShardPlan {
		t.Errorf("worker span shard counts sum to %v, plan is %d", sum, res.ShardPlan)
	}
}

func TestConcurrentTracedQueriesDoNotInterleave(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "ref")
	ref := obs.Skeleton(tracedWhatIf(t, ts.URL, QueryRequest{Session: "ref", Query: germanCount}).Trace.Root)
	if !whatIfSkeleton.MatchString(ref) {
		t.Fatalf("serial reference skeleton %q does not match the stage golden", ref)
	}

	// Each goroutine queries its own cache-cold session concurrently; every
	// resulting tree must match the serial reference exactly. A span leaking
	// into another request's tree (interleave) would change both skeletons.
	const n = 4
	for i := 0; i < n; i++ {
		createSession(t, ts, fmt.Sprintf("c%d", i))
	}
	skeletons := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := tracedWhatIf(t, ts.URL, QueryRequest{Session: fmt.Sprintf("c%d", i), Query: germanCount})
			skeletons[i] = obs.Skeleton(res.Trace.Root)
		}(i)
	}
	wg.Wait()
	for i, s := range skeletons {
		if s != ref {
			t.Errorf("concurrent trace %d skeleton diverged:\n got %s\nwant %s", i, s, ref)
		}
	}
}

func TestJobTraceID(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	var info JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Kind: "whatif", Query: germanCount}, &info); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for info.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", info.State)
		}
		time.Sleep(20 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+info.ID, nil, &info)
	}
	if info.TraceID == "" {
		t.Fatal("done job has no trace_id")
	}
	var tj obs.TraceJSON
	if code := do(t, "GET", ts.URL+"/v1/traces/"+info.TraceID, nil, &tj); code != http.StatusOK {
		t.Fatalf("job trace %q: status %d", info.TraceID, code)
	}
	if tj.Root.Name != "job:whatif" || childNamed(tj.Root, "queue_wait") == nil || childNamed(tj.Root, "run") == nil {
		t.Errorf("job trace malformed: %s", obs.Skeleton(tj.Root))
	}
}
