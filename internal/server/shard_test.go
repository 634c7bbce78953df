package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hyper/internal/jobs"
)

// scrapeMetrics returns the server's /metrics exposition.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestShardKnobAndGauges pins the serving-side shard surface: the per-request
// shards knob is accepted and execution-only (identical values for every
// fan-out), responses expose the plan, and each evaluation's shards and each
// request's latency are recorded once — in the per-query cost histogram and
// the request-latency histogram /v1/stats reads, finished jobs included.
func TestShardKnobAndGauges(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "s1")

	var base WhatIfResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/s1/whatif", QueryRequest{Query: germanCount}, &base); code != http.StatusOK {
		t.Fatalf("whatif: status %d", code)
	}
	if base.ShardPlan < 1 || base.ShardWorkers < 1 {
		t.Fatalf("response missing shard diagnostics: %+v", base)
	}
	for _, shards := range []int{1, 2, 7} {
		var got WhatIfResponse
		if code := do(t, "POST", ts.URL+"/v1/sessions/s1/whatif", QueryRequest{Query: germanCount, Shards: shards}, &got); code != http.StatusOK {
			t.Fatalf("whatif shards=%d: status %d", shards, code)
		}
		if got.Value != base.Value || got.Sum != base.Sum || got.Count != base.Count {
			t.Errorf("shards=%d changed the result: %v, want %v", shards, got.Value, base.Value)
		}
		if got.ShardPlan != base.ShardPlan {
			t.Errorf("shards=%d changed the plan: %d, want %d", shards, got.ShardPlan, base.ShardPlan)
		}
	}

	// A tiny shard_rows granularity is a remote CPU blowup; reject it.
	if code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "tiny", Dataset: "german", Scale: 0.1,
		Options: &SessionOptions{ShardRows: 1},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("shard_rows=1 session: status %d, want 400", code)
	}

	var info JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Session: "s1", Kind: "whatif", Query: germanCount}, &info); code != http.StatusOK {
		t.Fatalf("submit job: status %d", code)
	}
	if final := pollJob(t, ts, info.ID, 30*time.Second, terminal); final.State != "done" {
		t.Fatalf("job state %q: %s", final.State, final.Error)
	}
	var stats StatsResponse
	if code := do(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if got := stats.Endpoints["job:whatif"].Count; got != 1 {
		t.Errorf("/v1/stats endpoints[job:whatif].count = %d, want 1", got)
	}
	// Four synchronous what-ifs, each running the whole plan locally: the
	// histogram's count is the evaluations, its sum the shards run.
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`hyper_query_cost_shards_count{endpoint="whatif"} 4`,
		fmt.Sprintf(`hyper_query_cost_shards_sum{endpoint="whatif"} %d`, 4*base.ShardPlan),
		`hyper_query_cost_shards_count{endpoint="job:whatif"} 1`,
		`hyper_request_duration_ms_count{endpoint="job:whatif"} 1`,
	} {
		if !strings.Contains(text, "\n"+want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestJobProgressShardCounters pins that the "shards" progress stage flows
// into job snapshots without clobbering the primary stage counters.
func TestJobProgressShardCounters(t *testing.T) {
	var p jobs.Progress
	p.Report("tuples", 1024, 5000)
	p.Report("shards", 1, 2)
	stage, done, total := p.Snapshot()
	if stage != "tuples" || done != 1024 || total != 5000 {
		t.Errorf("primary stage clobbered: %s %d/%d", stage, done, total)
	}
	sd, st := p.ShardSnapshot()
	if sd != 1 || st != 2 {
		t.Errorf("shard counters = %d/%d, want 1/2", sd, st)
	}

	info := toJobInfo(jobs.Snapshot{Stage: "tuples", Done: 1024, Total: 5000, ShardsDone: 1, ShardsTotal: 2})
	if info.Progress.ShardsDone != 1 || info.Progress.ShardsTotal != 2 {
		t.Errorf("wire progress = %+v", info.Progress)
	}
}
