package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hyper/internal/hyperql"
	"hyper/internal/obs"
)

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestUsageEndpointAggregatesByShape pins the usage analytics surface:
// queries differing only in literals land in one row with a summed cost
// vector, different kinds and structures land in separate rows, and the
// per-session view filters.
func TestUsageEndpointAggregatesByShape(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	// Two what-ifs of the same shape (different literals), one structurally
	// different what-if, one how-to per method (each its own shape).
	for _, q := range []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Status) = 4 OUTPUT COUNT(Credit = 0)`,
	} {
		if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: q}, nil); code != http.StatusOK {
			t.Fatalf("whatif: status %d", code)
		}
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{
		Query: `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
	}, nil); code != http.StatusOK {
		t.Fatalf("whatif: status %d", code)
	}
	howtos := []QueryRequest{
		{Method: "ip", Query: `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`},
		{Method: "mincost", Target: 900, Query: `USE German HOWTOUPDATE Status, Housing TOMAXIMIZE COUNT(Credit = 1)`},
		{Method: "brute", Query: `USE German HOWTOUPDATE Housing TOMAXIMIZE COUNT(Credit = 1)`},
	}
	whatIfEvals := map[string]int{} // shape fingerprint -> the response's whatif_evals
	for _, req := range howtos {
		var resp HowToResponse
		if code := do(t, "POST", ts.URL+"/v1/sessions/g/howto", req, &resp); code != http.StatusOK {
			t.Fatalf("howto %s: status %d", req.Method, code)
		}
		q, err := hyperql.Parse(req.Query)
		if err != nil {
			t.Fatal(err)
		}
		whatIfEvals[hyperql.Shape(q)] = resp.WhatIfEvals
	}

	var usage UsageResponse
	if code := do(t, "GET", ts.URL+"/v1/usage", nil, &usage); code != http.StatusOK {
		t.Fatalf("usage: status %d", code)
	}
	if len(usage.Shapes) != 5 {
		t.Fatalf("usage rows = %d, want 5: %+v", len(usage.Shapes), usage.Shapes)
	}
	// Hottest first: the repeated shape leads with count 2.
	top := usage.Shapes[0]
	if top.Count != 2 || top.Kind != "whatif" || top.Session != "g" {
		t.Errorf("top row = %+v, want the count-2 whatif shape", top)
	}
	if !strings.Contains(top.Shape, "UPDATE(Status)") || !strings.Contains(top.Shape, "?") ||
		strings.ContainsAny(top.Shape, "0123456789") {
		t.Errorf("top shape %q should normalize literals away", top.Shape)
	}
	if !hex16.MatchString(top.Fingerprint) {
		t.Errorf("fingerprint %q is not 16 hex digits", top.Fingerprint)
	}
	if top.Cost == nil || top.Cost.TuplesEvaluated == 0 || top.Cost.ShardsRun == 0 {
		t.Errorf("top cost vector empty: %+v", top.Cost)
	}
	if top.TotalMs <= 0 || top.MeanMs <= 0 || top.MeanMs > top.TotalMs {
		t.Errorf("wall accounting: total=%v mean=%v", top.TotalMs, top.MeanMs)
	}
	kinds := map[string]bool{}
	for _, row := range usage.Shapes {
		kinds[row.Kind] = true
	}
	if !kinds["howto"] {
		t.Errorf("no howto row in %+v", usage.Shapes)
	}
	// Every how-to method's cost vector carries the solver-side counters.
	for _, row := range usage.Shapes {
		if row.Kind != "howto" {
			continue
		}
		want, ok := whatIfEvals[row.Shape]
		if !ok {
			t.Errorf("unexpected howto row %q", row.Shape)
		}
		delete(whatIfEvals, row.Shape)
		if row.Cost.HowToCandidates == 0 || row.Cost.WhatIfEvals != uint64(want) {
			t.Errorf("howto %q: cost vector candidates=%d whatif_evals=%d, response whatif_evals=%d",
				row.Shape, row.Cost.HowToCandidates, row.Cost.WhatIfEvals, want)
		}
	}
	if len(whatIfEvals) != 0 {
		t.Errorf("how-to shapes without a usage row: %v", whatIfEvals)
	}

	// Session filtering: the real session returns all rows, a stranger none.
	var filtered UsageResponse
	if code := do(t, "GET", ts.URL+"/v1/usage/g", nil, &filtered); code != http.StatusOK || len(filtered.Shapes) != 5 {
		t.Fatalf("usage/g: status %d, %d rows", code, len(filtered.Shapes))
	}
	if code := do(t, "GET", ts.URL+"/v1/usage/nosuch", nil, &filtered); code != http.StatusOK || len(filtered.Shapes) != 0 {
		t.Fatalf("usage/nosuch: status %d, %d rows", code, len(filtered.Shapes))
	}
}

// TestUsageTableBounded pins the top-K eviction: at capacity, a new shape
// evicts the least-used row, and the hot rows survive.
func TestUsageTableBounded(t *testing.T) {
	u := newUsageTable(2)
	cost := &obs.MeterJSON{TuplesEvaluated: 1}
	u.record("s", "whatif", "aaaa", "A", cost, 1, false)
	u.record("s", "whatif", "aaaa", "A", cost, 1, false)
	u.record("s", "whatif", "bbbb", "B", cost, 1, true)
	u.record("s", "whatif", "cccc", "C", cost, 1, false) // evicts B (count 1 < 2)

	rows := u.snapshot("")
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Fingerprint != "aaaa" || rows[0].Count != 2 {
		t.Errorf("hot row should survive eviction: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Fingerprint == "bbbb" {
			t.Errorf("least-used row should have been evicted: %+v", rows)
		}
	}
	if rows[0].Cost.TuplesEvaluated != 2 {
		t.Errorf("cost should sum across records: %+v", rows[0].Cost)
	}
}

// TestTraceListFilters pins the /v1/traces query parameters end to end:
// kind and limit narrow the listing, malformed values are a 400 with a
// JSON error body.
func TestTraceListFilters(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	for i := 0; i < 2; i++ {
		if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanCount}, nil); code != http.StatusOK {
			t.Fatalf("whatif: status %d", code)
		}
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/explain", QueryRequest{Query: germanCount}, nil); code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}

	var list obs.TraceList
	if code := do(t, "GET", ts.URL+"/v1/traces", nil, &list); code != http.StatusOK || len(list.Traces) != 3 {
		t.Fatalf("unfiltered traces: code %d, %d rows", code, len(list.Traces))
	}
	if code := do(t, "GET", ts.URL+"/v1/traces?kind=whatif", nil, &list); code != http.StatusOK || len(list.Traces) != 2 {
		t.Fatalf("kind filter: code %d, %d rows", code, len(list.Traces))
	}
	for _, tr := range list.Traces {
		if tr.Name != "whatif" {
			t.Errorf("kind filter leaked %q", tr.Name)
		}
	}
	if code := do(t, "GET", ts.URL+"/v1/traces?limit=1", nil, &list); code != http.StatusOK || len(list.Traces) != 1 {
		t.Fatalf("limit filter: code %d, %d rows", code, len(list.Traces))
	}
	if code := do(t, "GET", ts.URL+"/v1/traces?kind=whatif&min_ms=0&limit=10", nil, &list); code != http.StatusOK || len(list.Traces) != 2 {
		t.Fatalf("combined filter: code %d, %d rows", code, len(list.Traces))
	}
	// A threshold far beyond any test-query latency filters everything.
	if code := do(t, "GET", ts.URL+"/v1/traces?min_ms=3600000", nil, &list); code != http.StatusOK || len(list.Traces) != 0 {
		t.Fatalf("min_ms filter: code %d, %d rows", code, len(list.Traces))
	}

	for _, bad := range []string{"min_ms=abc", "min_ms=-1", "limit=x", "limit=-2"} {
		var errBody map[string]string
		if code := do(t, "GET", ts.URL+"/v1/traces?"+bad, nil, &errBody); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		} else if errBody["error"] == "" {
			t.Errorf("%s: missing error body", bad)
		}
	}
}

// TestSlowLogCarriesCostAndShape pins the enriched slow-query line: the
// cost vector and shape identity ride along with the trace id.
func TestSlowLogCarriesCostAndShape(t *testing.T) {
	var slow strings.Builder
	var slowMu sync.Mutex
	srv := New(Config{SlowQueryMs: 1, SlowQueryLog: syncWriter{&slowMu, &slow}, Fault: slowStage(t)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	createSession(t, ts, "g")
	if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanCount}, nil); code != http.StatusOK {
		t.Fatalf("whatif: status %d", code)
	}

	slowMu.Lock()
	logged := slow.String()
	slowMu.Unlock()
	var line slowQueryLine
	if err := json.Unmarshal([]byte(strings.SplitN(logged, "\n", 2)[0]), &line); err != nil {
		t.Fatalf("slow-query line %q: %v", logged, err)
	}
	if line.Session != "g" || line.Kind != "whatif" || !hex16.MatchString(line.Shape) {
		t.Errorf("slow line identity = %q/%q/%q", line.Session, line.Kind, line.Shape)
	}
	if line.Cost == nil || line.Cost.TuplesEvaluated == 0 {
		t.Errorf("slow line cost vector = %+v", line.Cost)
	}
	if line.Cost != nil && len(line.Cost.StagesMs) == 0 {
		t.Errorf("slow line cost has no stage breakdown: %+v", line.Cost)
	}
	// The injected delay is localised: it lands in the stage it was armed at.
	if line.Cost != nil && line.Cost.StagesMs["eval_shards"] < 5 {
		t.Errorf("slow line eval_shards = %v ms, want the injected 5 ms in it", line.Cost.StagesMs["eval_shards"])
	}
}

// TestJobUsageRecorded pins that asynchronous jobs land in the same usage
// table as synchronous queries.
func TestJobUsageRecorded(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")
	var info JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "g", Kind: "whatif", Query: germanCount}, &info); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	final := pollJob(t, ts, info.ID, 30*time.Second, terminal)
	if final.State != "done" {
		t.Fatalf("job state %q: %s", final.State, final.Error)
	}

	var usage UsageResponse
	if code := do(t, "GET", ts.URL+"/v1/usage/g", nil, &usage); code != http.StatusOK {
		t.Fatalf("usage: status %d", code)
	}
	if len(usage.Shapes) != 1 || usage.Shapes[0].Kind != "whatif" || usage.Shapes[0].Count != 1 {
		t.Fatalf("job usage rows = %+v", usage.Shapes)
	}
	if usage.Shapes[0].Cost.TuplesEvaluated == 0 {
		t.Errorf("job cost vector empty: %+v", usage.Shapes[0].Cost)
	}
}
