package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyper"
	"hyper/internal/histcheck"
	"hyper/internal/httpapi"
)

// loansRow renders row i of the deterministic synthetic Loans table the
// MVCC tests grow. Any prefix [0,n) of these rows is reproducible, which is
// what lets a fresh session stand in as the golden for a pinned snapshot.
func loansRow(i int) string {
	return fmt.Sprintf("%d,%d,%d", i%4, (i/2)%3, (i+i/5)%2)
}

func loansCSV(lo, hi int) string {
	csv := "Status,Savings,Credit\n"
	for i := lo; i < hi; i++ {
		csv += loansRow(i) + "\n"
	}
	return csv
}

// createLoansSession creates a CSV session holding rows [0,n) of the Loans
// table at the test shard granularity.
func createLoansSession(t *testing.T, base, name string, n int) {
	t.Helper()
	status, payload := distPost(t, base, "/v1/sessions", CreateSessionRequest{
		Name: name,
		CSV: &CSVDatabase{
			Tables: []CSVTable{{Name: "Loans", Data: loansCSV(0, n)}},
			Model: &CSVModel{Edges: [][2]string{
				{"Loans.Status", "Loans.Credit"},
				{"Loans.Savings", "Loans.Credit"},
			}},
		},
		Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("create session %s: %d %s", name, status, payload)
	}
}

func appendLoans(t *testing.T, base, name string, lo, hi int) AppendResponse {
	t.Helper()
	var resp AppendResponse
	status, payload := distPost(t, base, "/v1/sessions/"+name+"/rows", AppendRequest{
		Tables: []AppendTable{{Name: "Loans", Data: loansCSV(lo, hi)}},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("append to %s: %d %s", name, status, payload)
	}
	return resp
}

const loansQuery = `USE Loans WHEN Savings = 1 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`

// TestMVCCSnapshotBitIdentity is the tentpole acceptance test: after rows
// are appended, querying snapshot v must be bit-identical to querying a
// fresh session holding exactly v's row prefix — at shard fan-outs 1 and 4,
// both local and distributed over workers. The fresh session lives on a
// separate server so nothing (caches, registries) can be shared by
// accident.
func TestMVCCSnapshotBitIdentity(t *testing.T) {
	grown := distTestServer(t, 2)
	golden := distTestServer(t, 2)

	const prefix, full = 600, 1100
	createLoansSession(t, grown, "s", prefix)
	resp := appendLoans(t, grown, "s", prefix, full)
	if resp.Version != 2 || resp.Rows != full || resp.AppendedRows != full-prefix {
		t.Fatalf("append response = %+v, want version 2, %d rows", resp, full)
	}
	// Strided shard accounting at target 256: creation seals [0,256) and
	// [256,512); the append must reuse both (never rescanning history) and
	// fit exactly the three shards the new rows touch.
	if resp.ShardsFitted != 3 || resp.ShardsReused != 2 {
		t.Fatalf("append shards fitted=%d reused=%d, want 3 fitted, 2 reused", resp.ShardsFitted, resp.ShardsReused)
	}

	// golden server: fresh sessions on the prefix rows and on the full rows.
	createLoansSession(t, golden, "pre", prefix)
	createLoansSession(t, golden, "all", full)

	for _, shards := range []int{1, 4} {
		for _, placement := range []string{"local", "workers"} {
			label := fmt.Sprintf("shards=%d placement=%s", shards, placement)
			query := func(base, session string, snapshot int64) *WhatIfResponse {
				t.Helper()
				var res WhatIfResponse
				st, p := distPost(t, base, "/v1/sessions/"+session+"/whatif", QueryRequest{
					Query: loansQuery, Snapshot: snapshot, Shards: shards, Placement: placement,
				}, &res)
				if st != http.StatusOK {
					t.Fatalf("%s: whatif %s@%d: %d %s", label, session, snapshot, st, p)
				}
				return &res
			}
			asOf1 := query(grown, "s", 1)
			pre := query(golden, "pre", 0)
			if got, want := stableOf(asOf1), stableOf(pre); got != want {
				t.Fatalf("%s: as-of-1 diverges from fresh prefix session:\n%s\nvs\n%s", label, got, want)
			}
			if asOf1.Snapshot != 1 {
				t.Fatalf("%s: pinned response snapshot = %d, want 1", label, asOf1.Snapshot)
			}
			head := query(grown, "s", 0)
			all := query(golden, "all", 0)
			if got, want := stableOf(head), stableOf(all); got != want {
				t.Fatalf("%s: head diverges from fresh full session:\n%s\nvs\n%s", label, got, want)
			}
			if head.Snapshot != 2 {
				t.Fatalf("%s: head response snapshot = %d, want 2", label, head.Snapshot)
			}
			if stableOf(head) == stableOf(asOf1) {
				t.Fatalf("%s: append did not change the result — the golden is vacuous", label)
			}
		}
	}

	// The meter counters surface in usage analytics: the append shape's cost
	// vector must show the fitted/reused split (the observable form of the
	// "appends never refit sealed shards" invariant).
	var usage UsageResponse
	if code := do(t, "GET", grown+"/v1/usage/s", nil, &usage); code != http.StatusOK {
		t.Fatalf("usage: status %d", code)
	}
	found := false
	for _, u := range usage.Shapes {
		if u.Kind != "append" {
			continue
		}
		found = true
		if u.Shape != "APPEND(Loans)" {
			t.Errorf("append shape = %q, want APPEND(Loans)", u.Shape)
		}
		if u.Cost == nil || u.Cost.AppendShardsFit != 3 || u.Cost.AppendShardsReuse != 2 {
			t.Errorf("append cost vector = %+v, want fit 3, reuse 2", u.Cost)
		}
	}
	if !found {
		t.Error("usage table has no append shape")
	}

	// Snapshot listing reflects the chain.
	var snaps SnapshotListResponse
	if code := do(t, "GET", grown+"/v1/sessions/s/snapshots", nil, &snaps); code != http.StatusOK {
		t.Fatalf("snapshots: status %d", code)
	}
	if snaps.Head != 2 || len(snaps.Snapshots) != 2 {
		t.Fatalf("snapshots = %+v, want head 2 with 2 entries", snaps)
	}
	if snaps.Snapshots[0].Rows != prefix || snaps.Snapshots[1].Rows != full ||
		snaps.Snapshots[1].AppendedRows != full-prefix {
		t.Fatalf("snapshot rows = %+v", snaps.Snapshots)
	}
}

// TestMVCCWhatIfDelta exercises the first-class what-if delta: one request
// evaluates the hypothetical at two versions and reports the difference.
func TestMVCCWhatIfDelta(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "d", 600)
	appendLoans(t, ts.URL, "d", 600, 1100)

	var v1, head WhatIfResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, Snapshot: 1}, &v1); code != http.StatusOK {
		t.Fatalf("as-of-1: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, DeltaVs: 1}, &head); code != http.StatusOK {
		t.Fatalf("delta query: status %d", code)
	}
	if head.Delta == nil {
		t.Fatal("delta_vs query returned no delta")
	}
	if head.Delta.VsSnapshot != 1 || head.Delta.VsValue != v1.Value {
		t.Fatalf("delta = %+v, want vs_snapshot 1 with value %v", head.Delta, v1.Value)
	}
	if got, want := head.Delta.Delta, head.Value-v1.Value; got != want {
		t.Fatalf("delta.delta = %v, want %v", got, want)
	}

	// delta_vs is a what-if concept; explain and how-to reject it.
	var errResp httpapi.ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/explain", QueryRequest{Query: loansQuery, DeltaVs: 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("explain with delta_vs: status %d", code)
	}
	// An unknown comparison version is snapshot_not_found.
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, DeltaVs: 9}, &errResp); code != http.StatusNotFound {
		t.Fatalf("delta_vs=9: status %d", code)
	}
	if errResp.Code != "snapshot_not_found" {
		t.Fatalf("delta_vs=9 code = %q, want snapshot_not_found", errResp.Code)
	}
}

// TestUnknownDeltaVsEvaluatesNothing: a what-if whose delta_vs names no
// version answers 404 before the head query is evaluated, so the session's
// query count does not move.
func TestUnknownDeltaVsEvaluatesNothing(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "d", 600)

	var before, after SessionInfo
	if code := do(t, "GET", ts.URL+"/v1/sessions/d", nil, &before); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	var errResp httpapi.ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/whatif", QueryRequest{Query: loansQuery, DeltaVs: 9}, &errResp); code != http.StatusNotFound {
		t.Fatalf("delta_vs=9: status %d", code)
	}
	if errResp.Code != "snapshot_not_found" {
		t.Fatalf("delta_vs=9 code = %q, want snapshot_not_found", errResp.Code)
	}
	if code := do(t, "GET", ts.URL+"/v1/sessions/d", nil, &after); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	if after.Queries != before.Queries {
		t.Fatalf("queries went from %d to %d: the head query ran before delta_vs was resolved", before.Queries, after.Queries)
	}
}

// TestRejectedQueryCountsNothing: a query answered 400 for its placement,
// its method or text that does not parse was never evaluated, so the
// session's query count stays where it was.
func TestRejectedQueryCountsNothing(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "d", 600)
	const howTo = `USE Loans HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	for _, tc := range []struct {
		name, path string
		req        QueryRequest
	}{
		{"what-if placement", "whatif", QueryRequest{Query: loansQuery, Placement: "bogus"}},
		{"how-to placement", "howto", QueryRequest{Query: howTo, Placement: "bogus"}},
		{"how-to method", "howto", QueryRequest{Query: howTo, Method: "bogus"}},
		{"what-if text", "whatif", QueryRequest{Query: `not hyperql`}},
		{"how-to text", "howto", QueryRequest{Query: `not hyperql`}},
		{"explain text", "explain", QueryRequest{Query: `not hyperql`}},
	} {
		var before, after SessionInfo
		if code := do(t, "GET", ts.URL+"/v1/sessions/d", nil, &before); code != http.StatusOK {
			t.Fatalf("session info: status %d", code)
		}
		var errResp httpapi.ErrorResponse
		if code := do(t, "POST", ts.URL+"/v1/sessions/d/"+tc.path, tc.req, &errResp); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if code := do(t, "GET", ts.URL+"/v1/sessions/d", nil, &after); code != http.StatusOK {
			t.Fatalf("session info: status %d", code)
		}
		if after.Queries != before.Queries {
			t.Errorf("%s: queries went from %d to %d on a request answered 400", tc.name, before.Queries, after.Queries)
		}
	}
}

// TestMVCCJobsPinVersion: a job submitted before an append runs against the
// version that was head at submit time, not whatever head is when the
// runner gets to it.
func TestMVCCJobsPinVersion(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "j", 600)

	var v1 WhatIfResponse
	do(t, "POST", ts.URL+"/v1/sessions/j/whatif", QueryRequest{Query: loansQuery}, &v1)

	var job JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "j", Kind: "whatif", Query: loansQuery,
	}, &job); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if job.Snapshot != 1 {
		t.Fatalf("job pinned snapshot = %d, want 1", job.Snapshot)
	}
	appendLoans(t, ts.URL, "j", 600, 1100)

	deadline := time.Now().Add(10 * time.Second)
	for job.State != "done" && job.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &job)
	}
	if job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	raw, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res WhatIfResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != 1 || res.Value != v1.Value {
		t.Fatalf("job result snapshot=%d value=%v, want the pinned v1 value %v", res.Snapshot, res.Value, v1.Value)
	}

	// An explicit snapshot in the job request pins that version.
	appendLoans(t, ts.URL, "j", 1100, 1200)
	var pinned JobInfo
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "j", Kind: "whatif", Query: loansQuery, Snapshot: 2,
	}, &pinned); code != http.StatusOK {
		t.Fatalf("pinned submit failed")
	}
	if pinned.Snapshot != 2 {
		t.Fatalf("explicit pin = %d, want 2", pinned.Snapshot)
	}
	// Unknown versions are rejected at submit, not at run time.
	var errResp httpapi.ErrorResponse
	if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Session: "j", Kind: "whatif", Query: loansQuery, Snapshot: 99,
	}, &errResp); code != http.StatusNotFound || errResp.Code != "snapshot_not_found" {
		t.Fatalf("snapshot=99 submit: %d %+v", code, errResp)
	}
}

// isoQuery and isoValue label the two renderings TestMVCCIsolation records:
// a what-if response's placement-independent fields, and the bare value a
// delta_vs response carries for its comparison version.
const isoQuery, isoValue = "loans", "loans.value"

// loansHeader is the header line every Loans CSV body starts with.
var loansHeader = loansCSV(0, 0)

func valueDigest(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// loansOracle is the specification's side of TestMVCCIsolation: the answer
// of a fresh library session (version 0, no cache, one shard worker, nothing
// the server built) over the creation rows plus the history's own append
// payloads 2..v, read row by row from the concatenated CSV.
func loansOracle(rows0 int, recs []histcheck.Record) histcheck.Oracle {
	payloads := map[int64]string{}
	for _, r := range recs {
		if r.Op == histcheck.Append {
			payloads[r.Version] = r.Payload
		}
	}
	return func(_, query string, version int64) (string, error) {
		csv := loansCSV(0, rows0)
		for v := int64(2); v <= version; v++ {
			rows, ok := strings.CutPrefix(payloads[v], loansHeader)
			if !ok {
				return "", fmt.Errorf("the history has no append payload for version %d", v)
			}
			csv += rows
		}
		rel, err := hyper.ReadCSVKeyed("Loans", strings.NewReader(csv), nil)
		if err != nil {
			return "", err
		}
		db := hyper.NewDatabase()
		if err := db.Add(rel); err != nil {
			return "", err
		}
		model := hyper.NewCausalModel()
		model.AddEdge("Loans.Status", "Loans.Credit")
		model.AddEdge("Loans.Savings", "Loans.Credit")
		sess := hyper.NewSession(db, model)
		sess.SetOptions(hyper.Options{Seed: 7, ShardRows: 256, Shards: 1})
		res, err := sess.WhatIf(loansQuery)
		if err != nil {
			return "", err
		}
		if query == isoValue {
			return valueDigest(res.Value), nil
		}
		// Through the wire encoding, as every recorded answer went.
		raw, err := json.Marshal(toWhatIfResponse(res))
		if err != nil {
			return "", err
		}
		var wire WhatIfResponse
		if err := json.Unmarshal(raw, &wire); err != nil {
			return "", err
		}
		return stableOf(&wire), nil
	}
}

// TestMVCCIsolation is the black-box isolation check CI's mvcc-check step
// runs for 30 seconds under -race: two appenders grow a session while three
// readers issue pinned and head what-ifs — local or over the two workers,
// one in eight through /v1/jobs, one in eight with delta_vs — and every
// client records what it sent and what came back. Nothing is compared while
// the load runs; the recorded history is then checked offline against the
// append-only snapshot-isolation specification (internal/histcheck) with a
// fresh library session as the oracle, so a server that is consistently
// wrong fails too. Runtime scales with HYPER_MVCC_CHECK_SECONDS (default
// ~2s for plain `go test`).
func TestMVCCIsolation(t *testing.T) {
	duration := 2 * time.Second
	if s := os.Getenv("HYPER_MVCC_CHECK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("HYPER_MVCC_CHECK_SECONDS=%q: %v", s, err)
		}
		duration = time.Duration(secs) * time.Second
	}
	base := distTestServer(t, 2)
	const rows0 = 400
	createLoansSession(t, base, "iso", rows0)

	// call is the goroutine-safe HTTP exchange of the load: 0 on a transport
	// or decoding failure, which it reports itself.
	call := func(method, path string, body, out any) int {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0
		}
		req, err := http.NewRequest(method, base+path, bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: decoding the response: %v", method, path, err)
			return 0
		}
		return resp.StatusCode
	}
	// viaJob runs req as an asynchronous job and decodes its result.
	viaJob := func(req QueryRequest, res *WhatIfResponse) bool {
		var job JobInfo
		if code := call("POST", "/v1/jobs", JobRequest{
			Session: "iso", Kind: "whatif", Query: req.Query, Snapshot: req.Snapshot, Placement: req.Placement,
		}, &job); code != http.StatusOK {
			t.Errorf("job submit: status %d", code)
			return false
		}
		for giveUp := time.Now().Add(30 * time.Second); job.State != "done"; {
			if job.State == "failed" || time.Now().After(giveUp) {
				t.Errorf("job %s is %s: %s", job.ID, job.State, job.Error)
				return false
			}
			time.Sleep(2 * time.Millisecond)
			if code := call("GET", "/v1/jobs/"+job.ID, nil, &job); code != http.StatusOK {
				t.Errorf("job poll: status %d", code)
				return false
			}
		}
		raw, err := json.Marshal(job.Result)
		if err == nil {
			err = json.Unmarshal(raw, res)
		}
		if err != nil {
			t.Errorf("job %s result: %v", job.ID, err)
		}
		return err == nil
	}

	var (
		log  histcheck.Log
		head atomic.Int64 // the newest version an appender has been told of
		wg   sync.WaitGroup
		kind struct{ local, workers, job, delta atomic.Int64 }
	)
	head.Store(1)
	deadline := time.Now().Add(duration)

	// distTestServer's workers are handlers, not daemons: nothing heartbeats
	// for them, and a run longer than the lease would finish on local
	// fallbacks alone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			for _, id := range []string{"tw1", "tw2"} {
				if resp, err := http.Post(base+"/dist/v1/workers/"+id+"/beat", "application/json", nil); err == nil {
					resp.Body.Close()
				}
			}
			time.Sleep(time.Second)
		}
	}()

	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + a)))
			for time.Now().Before(deadline) {
				batch := loansHeader
				for i := 0; i < 1+rng.Intn(20); i++ {
					batch += fmt.Sprintf("%d,%d,%d\n", rng.Intn(4), rng.Intn(3), rng.Intn(2))
				}
				var resp AppendResponse
				start := time.Now()
				code := call("POST", "/v1/sessions/iso/rows", AppendRequest{Tables: []AppendTable{{Name: "Loans", Data: batch}}}, &resp)
				end := time.Now()
				if code != http.StatusOK {
					t.Errorf("append: status %d", code)
					return
				}
				log.Add(histcheck.Record{
					Proc: fmt.Sprintf("appender-%d", a), Session: "iso", Op: histcheck.Append,
					Version: resp.Version, Payload: batch, Start: start, End: end,
				})
				for h := head.Load(); h < resp.Version && !head.CompareAndSwap(h, resp.Version); h = head.Load() {
				}
				// About 250 appends per appender however long the run: versions
				// keep arriving between reads until the end, and the oracle's
				// work (one fresh session per observed version) stays bounded.
				time.Sleep(time.Duration(rng.Int63n(int64(duration) / 125)))
			}
		}(a)
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			proc := fmt.Sprintf("reader-%d", r)
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for time.Now().Before(deadline) {
				h := head.Load()
				req := QueryRequest{Query: loansQuery, Placement: "local"}
				seen := &kind.local
				if rng.Intn(2) == 0 {
					req.Placement, seen = "workers", &kind.workers
				}
				// A local read pins any published version. A worker holds a
				// bounded set of frames, each shipped as a delta over its
				// parent's, so a workers-placed read pins near the head.
				pick := func() int64 {
					if req.Placement == "workers" {
						return h - rng.Int63n(min(h, 4))
					}
					return 1 + rng.Int63n(h)
				}
				if rng.Intn(4) != 0 { // else the head
					req.Snapshot = pick()
				}
				var res WhatIfResponse
				var ok bool
				start := time.Now()
				switch rng.Intn(8) {
				case 0:
					ok, seen = viaJob(req, &res), &kind.job
				case 1:
					req.DeltaVs = pick()
					fallthrough
				default:
					code := call("POST", "/v1/sessions/iso/whatif", req, &res)
					if ok = code == http.StatusOK; !ok {
						t.Errorf("%s: what-if %+v: status %d", proc, req, code)
					}
				}
				end := time.Now()
				if !ok {
					return
				}
				seen.Add(1)
				rec := histcheck.Record{
					Proc: proc, Session: "iso", Op: histcheck.Read, Query: isoQuery,
					Pin: req.Snapshot, Version: res.Snapshot, Placement: req.Placement, Degraded: res.Degraded,
					Digest: stableOf(&res), Start: start, End: end,
				}
				log.Add(rec)
				if req.DeltaVs != 0 {
					// One request, two observations: the comparison version's
					// value is a pinned read of its own.
					d := res.Delta
					if d == nil || d.Delta != res.Value-d.VsValue {
						t.Errorf("%s: delta_vs=%d answered %+v beside value %v", proc, req.DeltaVs, d, res.Value)
						return
					}
					kind.delta.Add(1)
					rec.Query, rec.Pin, rec.Version, rec.Digest = isoValue, req.DeltaVs, d.VsSnapshot, valueDigest(d.VsValue)
					log.Add(rec)
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	recs := log.Records()
	if vs := histcheck.Check(recs, loansOracle(rows0, recs)); len(vs) > 0 {
		path, err := log.DumpFile(t.Name())
		for _, v := range vs[:min(len(vs), 20)] {
			t.Error(v)
		}
		t.Fatalf("%d violations of the specification; history written to %s (%v)", len(vs), path, err)
	}
	published := head.Load() - 1
	if published < 3 {
		t.Fatalf("only %d versions were published — not exercising concurrency", published)
	}
	if kind.local.Load() == 0 || kind.workers.Load() == 0 || kind.job.Load() == 0 || kind.delta.Load() == 0 {
		t.Fatalf("reads recorded: local %d, workers %d, job %d, delta_vs %d — every kind must occur",
			kind.local.Load(), kind.workers.Load(), kind.job.Load(), kind.delta.Load())
	}
	var stats StatsResponse
	do(t, "GET", base+"/v1/stats", nil, &stats)
	t.Logf("mvcc checker: %d versions published, %d records (local %d, workers %d, job %d, delta_vs %d) checked over %v; fleet: %+v",
		published, len(recs), kind.local.Load(), kind.workers.Load(), kind.job.Load(), kind.delta.Load(), duration, stats.Dist.Stats)
}
