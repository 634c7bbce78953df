package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyper/internal/fault"
	"hyper/internal/httpapi"
)

// TestBindEveryWayIn: a query hyperd cannot run is refused alike however it
// arrives. Each malformed request goes in through its scoped route, as a
// synchronous batch element, as a single job and as a batch-job element, and
// each answers with the same status and message: the batch element in its
// own error field beside an answered sibling, the batch job prefixed with
// the element's index.
func TestBindEveryWayIn(t *testing.T) {
	ts := newTestServer(t, Config{})
	createLoansSession(t, ts.URL, "d", 600)
	const howTo = `USE Loans HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	for _, tc := range []struct {
		name, kind string
		req        QueryRequest
		status     int
		msg        string // the message every way in answers ("" = any)
	}{
		{"bad placement", "whatif", QueryRequest{Query: loansQuery, Placement: "bogus"}, http.StatusBadRequest, ""},
		{"unknown method", "howto", QueryRequest{Query: howTo, Method: "bogus"}, http.StatusBadRequest, ""},
		{"delta_vs on a how-to", "howto", QueryRequest{Query: howTo, DeltaVs: 1}, http.StatusBadRequest, ""},
		{"unknown snapshot", "whatif", QueryRequest{Query: loansQuery, Snapshot: 9}, http.StatusNotFound, ""},
		{"unknown delta_vs", "whatif", QueryRequest{Query: loansQuery, DeltaVs: 9}, http.StatusNotFound, ""},
		{"unparsable text", "whatif", QueryRequest{Query: `not hyperql`}, http.StatusBadRequest, ""},
		{"how-to text as a what-if", "whatif", QueryRequest{Query: howTo}, http.StatusBadRequest, ""},
		// A name the snapshot's view lacks is refused at bind, at its offset.
		{"unknown UPDATE column", "whatif", QueryRequest{Query: `USE Loans UPDATE(NoSuchColumn) = 3 OUTPUT COUNT(Credit = 1)`},
			http.StatusBadRequest, `offset 17: unknown column "NoSuchColumn" in Loans`},
		{"unknown WHEN column", "whatif", QueryRequest{Query: `USE Loans WHEN Zip = 3 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Placement: "workers"},
			http.StatusBadRequest, `offset 15: unknown column "Zip" in Loans`},
		{"unknown FOR column", "explain", QueryRequest{Query: `USE Loans UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Foo) = 1`},
			http.StatusBadRequest, `offset 62: unknown column "Foo" in Loans`},
		{"unknown OUTPUT column", "howto", QueryRequest{Query: `USE Loans HOWTOUPDATE Status TOMAXIMIZE COUNT(Nope = 1)`},
			http.StatusBadRequest, `offset 46: unknown column "Nope" in Loans`},
		{"unknown table", "whatif", QueryRequest{Query: `USE Nope UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
			http.StatusBadRequest, `offset 4: unknown table "Nope"`},
		// So is an aggregate inside a per-row predicate; at submission a job
		// of any of these was accepted and failed when it ran.
		{"aggregate in FOR", "whatif", QueryRequest{Query: `USE Loans UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR COUNT(*) > 0`},
			http.StatusBadRequest, `offset 58: aggregate COUNT(*) not allowed in FOR`},
		{"aggregate in a COUNT condition", "explain", QueryRequest{Query: `USE Loans UPDATE(Status) = 3 OUTPUT COUNT(SUM(Credit) > 0)`},
			http.StatusBadRequest, `offset 42: aggregate SUM(Credit) not allowed in COUNT`},
		{"aggregate in WHEN", "howto", QueryRequest{Query: `USE Loans WHEN AVG(Savings) > 1 HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`},
			http.StatusBadRequest, `offset 15: aggregate AVG(Savings) not allowed in WHEN`},
		// The first bad node wins over a good column after it.
		{"unknown WHEN column, then a column", "whatif", QueryRequest{Query: `USE Loans WHEN Zip = Credit UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`},
			http.StatusBadRequest, `offset 15: unknown column "Zip" in Loans`},
		{"PRE in OUTPUT, then a column", "whatif", QueryRequest{Query: `USE Loans UPDATE(Status) = 3 OUTPUT COUNT(PRE(Credit) = Savings)`},
			http.StatusBadRequest, `offset 46: PRE(Credit) is not allowed in OUTPUT, which reads post-update values`},
		{"aggregate in FOR, then a column", "explain", QueryRequest{Query: `USE Loans UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR COUNT(*) > Savings`},
			http.StatusBadRequest, `offset 58: aggregate COUNT(*) not allowed in FOR`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.req
			var scoped httpapi.ErrorResponse
			if code := do(t, "POST", ts.URL+"/v1/sessions/d/"+tc.kind, q, &scoped); code != tc.status || scoped.Error == "" ||
				tc.msg != "" && scoped.Error != tc.msg {
				t.Fatalf("scoped route: status %d %+v, want %d %q", code, scoped, tc.status, tc.msg)
			}
			want := scoped.Error

			element := BatchQuery{
				Kind: tc.kind, Query: q.Query, Method: q.Method, Target: q.Target,
				Snapshot: q.Snapshot, DeltaVs: q.DeltaVs, Shards: q.Shards, Placement: q.Placement,
			}
			good := BatchQuery{Query: loansQuery}
			var batch BatchResponse
			if code := do(t, "POST", ts.URL+"/v1/sessions/d/batch", BatchRequest{Queries: []BatchQuery{element, good}}, &batch); code != http.StatusOK {
				t.Fatalf("batch: status %d", code)
			}
			if batch.Results[0].Error != want || batch.Errors != 1 || batch.Results[1].WhatIf == nil {
				t.Errorf("batch element error %q (%d errors, sibling %+v), want %q alone", batch.Results[0].Error, batch.Errors, batch.Results[1], want)
			}

			var job httpapi.ErrorResponse
			if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
				Session: "d", Kind: tc.kind, Query: q.Query, Method: q.Method, Target: q.Target,
				Snapshot: q.Snapshot, DeltaVs: q.DeltaVs, Shards: q.Shards, Placement: q.Placement,
			}, &job); code != tc.status || job.Error != want {
				t.Errorf("job: status %d error %q, want %d %q", code, job.Error, tc.status, want)
			}

			var batchJob httpapi.ErrorResponse
			if code := do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
				Session: "d", Kind: "batch", Queries: []BatchQuery{good, element},
			}, &batchJob); code != tc.status || batchJob.Error != "queries[1]: "+want {
				t.Errorf("batch job: status %d error %q, want %d %q", code, batchJob.Error, tc.status, "queries[1]: "+want)
			}
		})
	}
}

// TestBatchPinsOneSnapshot: a synchronous batch binds every element when it
// arrives, so its head elements read one version even when an append lands
// while the batch runs. One worker runs the elements in turn; the first is
// held 300 ms in eval_shards, and the append lands while it is held.
func TestBatchPinsOneSnapshot(t *testing.T) {
	in, err := fault.New(1, fault.Rule{Point: fault.PointStage, Mode: fault.ModeDelay, Stage: "eval_shards", Delay: 300 * time.Millisecond, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Fault: in}).Handler())
	t.Cleanup(ts.Close)
	createLoansSession(t, ts.URL, "d", 600)

	rows, err := json.Marshal(AppendRequest{Tables: []AppendTable{{Name: "Loans", Data: loansCSV(600, 700)}}})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{})
	in.SetOnFire(func(fault.Point, fault.Mode) { close(held) }) // Count 1: fires once
	appended := make(chan error, 1)
	go func() {
		<-held
		resp, err := http.Post(ts.URL+"/v1/sessions/d/rows", "application/json", bytes.NewReader(rows))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		appended <- err
	}()
	var batch BatchResponse
	if code := do(t, "POST", ts.URL+"/v1/sessions/d/batch", BatchRequest{
		Workers: 1, Queries: []BatchQuery{{Query: loansQuery}, {Query: loansQuery}},
	}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if err := <-appended; err != nil {
		t.Fatalf("append: %v", err)
	}
	if batch.Errors != 0 {
		t.Fatalf("batch: %+v", batch.Results)
	}
	if a, b := batch.Results[0].WhatIf.Snapshot, batch.Results[1].WhatIf.Snapshot; a != 1 || b != 1 {
		t.Errorf("head elements read snapshots %d and %d, want both 1 (head at arrival)", a, b)
	}
}
