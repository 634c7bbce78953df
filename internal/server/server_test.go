package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hyper/internal/fault"
	"hyper/internal/httpapi"
)

// newTestServer starts an httptest server over a fresh Server.
func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// do issues a JSON request and decodes the JSON response into out (when
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// createSession makes a small german session named name.
func createSession(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	createSessionScale(t, ts, name, 0.3) // 1500 rows: fast but non-trivial
}

// slowStage is the injector of the slow-query-log tests: a 5 ms delay at the
// start of every eval_shards stage (the fault package's stage point). With
// the threshold at 1 ms, the smallest the config can express, every local
// what-if is slow however fast the host evaluates it.
func slowStage(t *testing.T) *fault.Injector {
	t.Helper()
	in, err := fault.New(1, fault.Rule{Point: fault.PointStage, Mode: fault.ModeDelay, Stage: "eval_shards", Delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func createSessionScale(t *testing.T, ts *httptest.Server, name string, scale float64) {
	t.Helper()
	var info SessionInfo
	code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:    name,
		Dataset: "german",
		Scale:   scale,
		Options: &SessionOptions{Mode: "full", Seed: 7},
	}, &info)
	if code != http.StatusOK {
		t.Fatalf("create session: status %d", code)
	}
	if info.Name != name || info.Dataset != "german" || info.Rows == 0 {
		t.Fatalf("unexpected session info: %+v", info)
	}
}

const germanCount = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`

func TestServerWhatIfAndCacheReuse(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	var first WhatIfResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanCount}, &first); code != http.StatusOK {
		t.Fatalf("whatif: status %d", code)
	}
	if first.Value <= 0 || first.ViewRows == 0 {
		t.Fatalf("degenerate what-if response: %+v", first)
	}
	var second WhatIfResponse
	do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanCount}, &second)
	if second.Value != first.Value {
		t.Errorf("repeat query changed value: %v vs %v", second.Value, first.Value)
	}

	// The repeat query must have been served from the session cache.
	var stats StatsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if len(stats.Sessions) != 1 {
		t.Fatalf("stats sessions = %d, want 1", len(stats.Sessions))
	}
	cs := stats.Sessions[0].Cache
	if cs.Hits < 3 {
		t.Errorf("cache hits = %d, want >= 3 (view, blocks, estimator)", cs.Hits)
	}
	if stats.Sessions[0].Queries != 2 {
		t.Errorf("session query count = %d, want 2", stats.Sessions[0].Queries)
	}
	ep, ok := stats.Endpoints["whatif"]
	if !ok || ep.Count != 2 || ep.Errors != 0 {
		t.Errorf("whatif endpoint stats = %+v, want count 2, errors 0", ep)
	}
}

func TestServerHowTo(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	var res HowToResponse
	code := do(t, "POST", ts.URL+"/v1/sessions/g/howto", QueryRequest{
		Query: `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`,
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("howto: status %d", code)
	}
	if len(res.Choices) != 1 || res.Objective < res.Base {
		t.Fatalf("unexpected how-to response: %+v", res)
	}
	// Unknown method is a client error.
	var errResp map[string]string
	code = do(t, "POST", ts.URL+"/v1/sessions/g/howto", QueryRequest{Query: "x", Method: "annealing"}, &errResp)
	if code != http.StatusBadRequest || errResp["error"] == "" {
		t.Errorf("bad method: status %d, body %v", code, errResp)
	}
}

func TestServerExplain(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	var res ExplainResponse
	code := do(t, "POST", ts.URL+"/v1/sessions/g/explain", QueryRequest{Query: germanCount}, &res)
	if code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}
	if res.Plan == "" {
		t.Error("empty plan")
	}
	if res.Snapshot != 1 {
		t.Errorf("explain snapshot = %d, want 1 (creation version)", res.Snapshot)
	}
}

func TestServerBatchMixedAndConcurrent(t *testing.T) {
	ts := newTestServer(t, Config{BatchWorkers: 4})
	createSession(t, ts, "g")
	req := BatchRequest{
		Queries: []BatchQuery{
			{Kind: "whatif", Query: germanCount},
			{Kind: "whatif", Query: `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`},
			{Kind: "explain", Query: germanCount},
			{Kind: "whatif", Query: `this does not parse`},
			{Kind: "sideways", Query: germanCount},
		},
		Workers: 4,
	}
	var res BatchResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/batch", req, &res); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(res.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(res.Results))
	}
	if res.Errors != 2 {
		t.Errorf("errors = %d, want 2 (parse failure + bad kind)", res.Errors)
	}
	for i, r := range res.Results {
		if r.Index != i {
			t.Errorf("result %d has index %d (order lost)", i, r.Index)
		}
	}
	if res.Results[0].WhatIf == nil || res.Results[0].WhatIf.Value <= 0 {
		t.Errorf("batch element 0 missing what-if result: %+v", res.Results[0])
	}
	if res.Results[2].Plan == "" {
		t.Error("batch element 2 missing explain plan")
	}
	if res.Results[3].Error == "" || res.Results[4].Error == "" {
		t.Error("failing batch elements did not report errors")
	}

	// Concurrent batches against one session must agree with each other.
	var wg sync.WaitGroup
	values := make([]float64, 6)
	for i := range values {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r BatchResponse
			do(t, "POST", ts.URL+"/v1/sessions/g/batch", BatchRequest{
				Queries: []BatchQuery{{Query: germanCount}},
			}, &r)
			if len(r.Results) == 1 && r.Results[0].WhatIf != nil {
				values[i] = r.Results[0].WhatIf.Value
			}
		}(i)
	}
	wg.Wait()
	for i, v := range values {
		if v != values[0] {
			t.Errorf("concurrent batch %d returned %v, batch 0 returned %v", i, v, values[0])
		}
	}
}

// TestBatchCancelMidRun cancels a batch from its first progress report, at
// one and two workers: every element is then either answered or carries the
// context's error, no element starts after the cancel, and the response
// counts the errors and reports the pool it ran on.
func TestBatchCancelMidRun(t *testing.T) {
	srv := New(Config{BatchWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	createSession(t, ts, "g")
	e, err := srv.session("g")
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]BatchQuery, 8)
	for i := range queries {
		queries[i] = BatchQuery{Query: fmt.Sprintf(
			`USE German UPDATE(Status) = %d OUTPUT COUNT(Credit = 1) FOR PRE(Age) = %d`, i%4, i/4)}
	}
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		res := e.runBatch(ctx, queries, workers, func(string, int, int) { cancel() })
		cancel()
		answered := 0
		for i, r := range res.Results {
			switch {
			case r.Index != i:
				t.Errorf("workers=%d: result %d has index %d", workers, i, r.Index)
			case r.Error == "" && r.WhatIf != nil:
				answered++
			case !strings.Contains(r.Error, ctx.Err().Error()):
				t.Errorf("workers=%d: element %d: error %q, want an answer or %q", workers, i, r.Error, ctx.Err())
			}
		}
		if answered == 0 || answered > workers || res.Errors != len(queries)-answered || res.Workers != workers {
			t.Errorf("workers=%d: %d answered, %d errors, pool %d; want 1..%d answered, the rest errors, pool %d",
				workers, answered, res.Errors, res.Workers, workers, workers)
		}
	}
}

// TestServerColdBatchBuildsOnce: a cold batch's workers land on one session
// cache together; each artifact is still built once, so the session reports
// the misses of a one-worker run however wide the pool.
func TestServerColdBatchBuildsOnce(t *testing.T) {
	ts := newTestServer(t, Config{BatchWorkers: 8})
	var queries []BatchQuery
	for i := 0; i < 8; i++ {
		queries = append(queries, BatchQuery{Query: fmt.Sprintf(
			`USE German UPDATE(Status) = %d OUTPUT COUNT(Credit = 1) FOR PRE(Age) = %d`, i%4, i/4)})
	}
	misses := map[int]uint64{}
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("w%d", workers)
		createSession(t, ts, name)
		var res BatchResponse
		do(t, "POST", ts.URL+"/v1/sessions/"+name+"/batch", BatchRequest{Queries: queries, Workers: workers}, &res)
		if res.Errors != 0 || res.Workers != workers {
			t.Fatalf("workers=%d: errors %d, pool %d", workers, res.Errors, res.Workers)
		}
		var info SessionInfo
		do(t, "GET", ts.URL+"/v1/sessions/"+name, nil, &info)
		misses[workers] = info.Cache.Misses
	}
	if misses[1] == 0 || misses[8] != misses[1] {
		t.Errorf("session cache misses: %d at workers=8, %d at workers=1; want equal", misses[8], misses[1])
	}
}

func TestServerSessionLifecycleAndErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxSessions: 2})

	// Query against a missing session.
	var errResp httpapi.ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/nope/whatif", QueryRequest{Query: germanCount}, &errResp); code != http.StatusNotFound {
		t.Errorf("missing session: status %d, want 404", code)
	}
	// Unknown dataset.
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "x", Dataset: "nope"}, &errResp); code != http.StatusBadRequest {
		t.Errorf("unknown dataset: status %d, want 400", code)
	}
	// Neither dataset nor CSV.
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "x"}, &errResp); code != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", code)
	}
	// Malformed body (unknown field).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader([]byte(`{"nope": 1}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	createSession(t, ts, "a")
	// Duplicate name.
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "a", Dataset: "toy"}, &errResp); code != http.StatusConflict {
		t.Errorf("duplicate: status %d, want 409", code)
	}
	createSession(t, ts, "b")
	// Session cap.
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "c", Dataset: "toy"}, &errResp); code != http.StatusTooManyRequests {
		t.Errorf("cap: status %d, want 429", code)
	}

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	do(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 2 || list.Sessions[0].Name != "a" || list.Sessions[1].Name != "b" {
		t.Fatalf("list = %+v, want [a b]", list.Sessions)
	}

	if code := do(t, "DELETE", ts.URL+"/v1/sessions/a", nil, nil); code != http.StatusOK {
		t.Errorf("delete: status %d", code)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/a", nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
	do(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 {
		t.Errorf("after delete, %d sessions remain, want 1", len(list.Sessions))
	}
}

// TestWhatIfValidatesEveryUpdate is the HTTP face of the engine test of the
// same name: an intervention on an immutable attribute is the client's error
// wherever in the UPDATE list it stands.
func TestWhatIfValidatesEveryUpdate(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	for _, q := range []string{
		`USE German UPDATE(Status) = 3 AND UPDATE(Age) = 1 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Age) = 1 AND UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
	} {
		var errResp httpapi.ErrorResponse
		code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: q}, &errResp)
		if code != http.StatusBadRequest || !strings.Contains(errResp.Error, "German.Age is immutable") {
			t.Errorf("%s: status %d, error %q; want 400 naming German.Age", q, code, errResp.Error)
		}
	}
}

func TestServerCSVSession(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := "Status,Savings,Credit\n"
	for i := 0; i < 60; i++ {
		csv += fmt.Sprintf("%d,%d,%d\n", i%4, i%3, (i+i/4)%2)
	}
	var info SessionInfo
	code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "mine",
		CSV: &CSVDatabase{
			Tables: []CSVTable{{Name: "Loans", Data: csv}},
			Model: &CSVModel{Edges: [][2]string{
				{"Loans.Status", "Loans.Credit"},
				{"Loans.Savings", "Loans.Credit"},
			}},
		},
	}, &info)
	if code != http.StatusOK {
		t.Fatalf("csv session: status %d (%+v)", code, info)
	}
	if info.Rows != 60 {
		t.Errorf("rows = %d, want 60", info.Rows)
	}
	var res WhatIfResponse
	code = do(t, "POST", ts.URL+"/v1/sessions/mine/whatif", QueryRequest{
		Query: `USE Loans UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("csv whatif: status %d", code)
	}
	if res.ViewRows != 60 {
		t.Errorf("view rows = %d, want 60", res.ViewRows)
	}

	// A model referencing a missing column must be rejected at creation.
	var errResp map[string]string
	code = do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "bad",
		CSV: &CSVDatabase{
			Tables: []CSVTable{{Name: "Loans", Data: csv}},
			Model:  &CSVModel{Edges: [][2]string{{"Loans.Nope", "Loans.Credit"}}},
		},
	}, &errResp)
	if code != http.StatusBadRequest || errResp["error"] == "" {
		t.Errorf("invalid model: status %d, body %v", code, errResp)
	}
}

func TestServerHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	var res map[string]any
	if code := do(t, "GET", ts.URL+"/healthz", nil, &res); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if res["ok"] != true {
		t.Errorf("healthz body = %v", res)
	}
}
