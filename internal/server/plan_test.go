package server

import (
	"fmt"
	"net/http"
	"regexp"
	"testing"
)

const germanPlanned = `USE German WHEN Age = 2 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`

// TestServerPlanCacheStatsAndSessionDelete exercises the plan cache through
// the HTTP surface: a repeated what-if must hit the session's plan cache,
// /v1/stats must expose the counters, and deleting the session must drop its
// cached plans — a recreated session compiles from scratch.
func TestServerPlanCacheStatsAndSessionDelete(t *testing.T) {
	ts := newTestServer(t, Config{})
	createSession(t, ts, "g")

	for i := 0; i < 2; i++ {
		var res WhatIfResponse
		if code := do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanPlanned}, &res); code != http.StatusOK {
			t.Fatalf("whatif %d: status %d", i, code)
		}
	}
	var stats StatsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Plan.Misses < 1 || stats.Plan.Compiles < 1 {
		t.Fatalf("plan stats after cold query = %+v, want a miss and a compile", stats.Plan)
	}
	if stats.Plan.Hits < 1 {
		t.Fatalf("plan stats after repeat = %+v, want a cache hit", stats.Plan)
	}
	if stats.Plan.Entries == 0 {
		t.Fatalf("plan stats = %+v, want live cache entries", stats.Plan)
	}
	if len(stats.Sessions) != 1 || stats.Sessions[0].Plan.Hits < 1 {
		t.Fatalf("session plan stats = %+v, want per-session hit counters", stats.Sessions)
	}

	// Deleting the session must drop its compiled plans with it.
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/g", nil, nil); code != http.StatusOK {
		t.Fatalf("delete session: status %d", code)
	}
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Plan.Entries != 0 || stats.Plan.Hits != 0 {
		t.Fatalf("plan stats after delete = %+v, want empty", stats.Plan)
	}

	// A recreated session starts cold: same query text, fresh compile, no
	// stale reuse from the deleted session.
	createSession(t, ts, "g")
	var res WhatIfResponse
	do(t, "POST", ts.URL+"/v1/sessions/g/whatif", QueryRequest{Query: germanPlanned}, &res)
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats.Plan.Hits != 0 || stats.Plan.Misses < 1 {
		t.Fatalf("plan stats after recreate = %+v, want a fresh miss and no hits", stats.Plan)
	}
}

// TestServerPlanCacheEntriesOverride checks the per-session bound override on
// session creation, and that the bound counts compiled plans and nothing
// else: three shapes through a bound of two leave two entries and one
// eviction (the column data they scanned is held by the relation, not here).
func TestServerPlanCacheEntriesOverride(t *testing.T) {
	ts := newTestServer(t, Config{})
	bound := 2
	var info SessionInfo
	code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:             "tiny",
		Dataset:          "german",
		Scale:            0.3,
		Options:          &SessionOptions{Mode: "full", Seed: 7},
		PlanCacheEntries: &bound,
	}, &info)
	if code != http.StatusOK {
		t.Fatalf("create session: status %d", code)
	}
	if info.Plan.MaxEntries != bound {
		t.Fatalf("plan cache bound = %d, want %d", info.Plan.MaxEntries, bound)
	}
	for _, when := range []string{"Age = 2", "Sex = 1", "Age >= 1 AND Sex = 0"} {
		q := "USE German WHEN " + when + " UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)"
		var res WhatIfResponse
		if code := do(t, "POST", ts.URL+"/v1/sessions/tiny/whatif", QueryRequest{Query: q}, &res); code != http.StatusOK {
			t.Fatalf("whatif WHEN %s: status %d", when, code)
		}
	}
	var stats StatsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if p := stats.Plan; p.Entries != 2 || p.Evictions != 1 || p.Compiles != 3 {
		t.Fatalf("plan stats = %+v, want 2 entries / 1 eviction / 3 compiles", p)
	}
}

var planFingerprintRe = regexp.MustCompile(`plan ([0-9a-f]{16})`)

// TestServerPlanSchemaChangeInvalidation pins the cache-identity contract at
// the HTTP surface: the same query text against a re-uploaded table with a
// different schema must plan under a different fingerprint (the signature is
// folded into the cache key), never reuse the old pushdown program.
func TestServerPlanSchemaChangeInvalidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	makeCSV := func(extra bool) string {
		header := "Status,Savings,Credit"
		if extra {
			header += ",Region"
		}
		csv := header + "\n"
		for i := 0; i < 60; i++ {
			row := fmt.Sprintf("%d,%d,%d", i%4, i%3, (i+i/4)%2)
			if extra {
				row += fmt.Sprintf(",%d", i%5)
			}
			csv += row + "\n"
		}
		return csv
	}
	create := func(extra bool) {
		t.Helper()
		var info SessionInfo
		code := do(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
			Name: "mine",
			CSV: &CSVDatabase{
				Tables: []CSVTable{{Name: "Loans", Data: makeCSV(extra)}},
				Model: &CSVModel{Edges: [][2]string{
					{"Loans.Status", "Loans.Credit"},
					{"Loans.Savings", "Loans.Credit"},
				}},
			},
		}, &info)
		if code != http.StatusOK {
			t.Fatalf("csv session (extra=%v): status %d (%+v)", extra, code, info)
		}
	}
	explainFP := func() string {
		t.Helper()
		var res ExplainResponse
		code := do(t, "POST", ts.URL+"/v1/sessions/mine/explain", QueryRequest{
			Query: `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		}, &res)
		if code != http.StatusOK {
			t.Fatalf("explain: status %d", code)
		}
		m := planFingerprintRe.FindStringSubmatch(res.Plan)
		if m == nil {
			t.Fatalf("explain output has no plan fingerprint:\n%s", res.Plan)
		}
		return m[1]
	}

	create(false)
	fp1 := explainFP()
	if code := do(t, "DELETE", ts.URL+"/v1/sessions/mine", nil, nil); code != http.StatusOK {
		t.Fatalf("delete session: status %d", code)
	}
	create(true)
	fp2 := explainFP()
	if fp1 == fp2 {
		t.Fatalf("same fingerprint %s across a schema change: a stale plan could be served", fp1)
	}
}

// TestServerPlanCacheAcrossAppend pins cache identity along the MVCC chain:
// after an append, the same query as of the old version must still hit the
// plan it compiled before the append (same fingerprint, no fresh compile),
// while the head — new data, new version — must compile fresh under a
// different fingerprint.
func TestServerPlanCacheAcrossAppend(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "v", 600)

	explainFP := func(snapshot int64) string {
		t.Helper()
		var res ExplainResponse
		code := do(t, "POST", ts.URL+"/v1/sessions/v/explain", QueryRequest{
			Query: loansQuery, Snapshot: snapshot,
		}, &res)
		if code != http.StatusOK {
			t.Fatalf("explain@%d: status %d", snapshot, code)
		}
		m := planFingerprintRe.FindStringSubmatch(res.Plan)
		if m == nil {
			t.Fatalf("explain output has no plan fingerprint:\n%s", res.Plan)
		}
		return m[1]
	}
	planStats := func() struct{ Hits, Misses, Compiles uint64 } {
		t.Helper()
		var stats StatsResponse
		if code := do(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return struct{ Hits, Misses, Compiles uint64 }{
			stats.Plan.Hits, stats.Plan.Misses, stats.Plan.Compiles,
		}
	}

	fpV1 := explainFP(0) // compiles at version 1
	before := planStats()
	appendLoans(t, ts.URL, "v", 600, 1100)

	// As of version 1: identical fingerprint, served from cache — the append
	// invalidated nothing behind the pinned snapshot.
	if got := explainFP(1); got != fpV1 {
		t.Fatalf("as-of-1 fingerprint %s != pre-append %s", got, fpV1)
	}
	afterPinned := planStats()
	if afterPinned.Hits <= before.Hits {
		t.Fatalf("as-of-1 explain missed the plan cache: %+v -> %+v", before, afterPinned)
	}
	if afterPinned.Compiles != before.Compiles {
		t.Fatalf("as-of-1 explain recompiled: %+v -> %+v", before, afterPinned)
	}

	// Head (version 2): different data identity, fresh fingerprint, fresh
	// compile.
	fpHead := explainFP(0)
	if fpHead == fpV1 {
		t.Fatalf("head shares fingerprint %s with version 1: stale stats could be served", fpV1)
	}
	afterHead := planStats()
	if afterHead.Compiles != afterPinned.Compiles+1 {
		t.Fatalf("head explain compiles %d, want %d", afterHead.Compiles, afterPinned.Compiles+1)
	}
}
