package server

import (
	"net/http"
	"testing"

	"hyper/internal/jobs"
)

// TestShardKnobAndGauges pins the serving-side shard surface: the per-request
// shards knob is accepted and execution-only (identical values for every
// fan-out), responses expose the plan, and /v1/stats accumulates the shard
// gauges.
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

	var stats StatsResponse
	if code := do(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Shards.Evals < 4 {
		t.Errorf("shard gauges recorded %d evals, want >= 4", stats.Shards.Evals)
	}
	if stats.Shards.ShardsRun < stats.Shards.Evals {
		t.Errorf("shards_run %d < evals %d", stats.Shards.ShardsRun, stats.Shards.Evals)
	}
	if stats.Shards.MaxPlan < 1 || stats.Shards.MaxWorkers < 1 {
		t.Errorf("gauge maxima missing: %+v", stats.Shards)
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
