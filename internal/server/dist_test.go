package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyper/internal/dist"
)

// distTestServer boots the serving API plus `workers` real shard workers
// (separate handlers, own frame stores) registered with the server's
// embedded coordinator.
func distTestServer(t *testing.T, workers int) (base string) {
	t.Helper()
	srv := New(Config{Logf: nil})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < workers; i++ {
		w := dist.NewWorker(dist.WorkerConfig{})
		wts := httptest.NewServer(w.Handler())
		t.Cleanup(wts.Close)
		body := fmt.Sprintf(`{"id":"tw%d","url":%q}`, i+1, wts.URL)
		resp, err := http.Post(ts.URL+"/dist/v1/workers", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register status %d", resp.StatusCode)
		}
	}
	return ts.URL
}

func distPost(t *testing.T, base, path string, body any, dst any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, dst); err != nil {
			t.Fatalf("decoding %s response: %v (%s)", path, err, payload)
		}
	}
	return resp.StatusCode, payload
}

// stableWhatIf is the placement-independent subset of a what-if response:
// every semantic field, none of the execution diagnostics (wall time,
// trained-model counts, worker fan-out).
type stableWhatIf struct {
	Value       float64  `json:"value"`
	Sum         float64  `json:"sum"`
	Count       float64  `json:"count"`
	Mode        string   `json:"mode"`
	Estimator   string   `json:"estimator"`
	Backdoor    []string `json:"backdoor"`
	Blocks      int      `json:"blocks"`
	Disjuncts   int      `json:"disjuncts"`
	ViewRows    int      `json:"view_rows"`
	UpdatedRows int      `json:"updated_rows"`
	SampledRows int      `json:"sampled_rows"`
	ShardPlan   int      `json:"shard_plan"`
}

func stableOf(r *WhatIfResponse) string {
	raw, _ := json.Marshal(stableWhatIf{
		Value: r.Value, Sum: r.Sum, Count: r.Count, Mode: r.Mode, Estimator: r.Estimator,
		Backdoor: r.Backdoor, Blocks: r.Blocks, Disjuncts: r.Disjuncts,
		ViewRows: r.ViewRows, UpdatedRows: r.UpdatedRows, SampledRows: r.SampledRows,
		ShardPlan: r.ShardPlan,
	})
	return string(raw)
}

// TestDistStatsMatchMetrics: the coordinator keeps each count once, in the
// metrics registry, so after a workers-placed query /v1/stats' dist section
// and /metrics' hyper_dist_* series report the same values.
func TestDistStatsMatchMetrics(t *testing.T) {
	base := distTestServer(t, 2)
	if st, p := distPost(t, base, "/v1/sessions", CreateSessionRequest{
		Name: "g", Dataset: "german", Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil); st != http.StatusOK {
		t.Fatalf("create session: %d %s", st, p)
	}
	var res WhatIfResponse
	if st, p := distPost(t, base, "/v1/sessions/g/whatif", QueryRequest{
		Query: `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Placement: "workers",
	}, &res); st != http.StatusOK || res.Placement != "workers" {
		t.Fatalf("workers-placed whatif: %d placement %q %s", st, res.Placement, p)
	}
	var stats StatsResponse
	if code := do(t, "GET", base+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	d := stats.Dist
	if d.Registrations != 2 || d.RemoteEvals != 1 || d.RemoteShards != uint64(res.ShardPlan) || d.FramesShipped != 2 {
		t.Fatalf("dist stats %+v after one workers-placed query over two workers", d.Stats)
	}
	text := scrapeMetrics(t, base)
	for name, v := range map[string]uint64{
		"hyper_dist_workers_alive":          uint64(d.WorkersAlive),
		"hyper_dist_workers_registered":     uint64(d.WorkersRegistered),
		"hyper_dist_breaker_state":          uint64(d.WorkersQuarantined),
		"hyper_dist_registrations_total":    d.Registrations,
		"hyper_dist_workers_lost_total":     d.WorkersLost,
		"hyper_dist_requeues_total":         d.Requeues,
		"hyper_dist_frames_shipped_total":   d.FramesShipped,
		"hyper_dist_remote_evals_total":     d.RemoteEvals,
		"hyper_dist_remote_shards_total":    d.RemoteShards,
		"hyper_dist_local_fallbacks_total":  d.LocalFallbacks,
		"hyper_dist_retries_total":          d.Retries,
		"hyper_dist_workers_restored_total": d.RestoredWorkers,
		"hyper_dist_persist_errors_total":   d.PersistErrors,
	} {
		if want := fmt.Sprintf("\n%s %d\n", name, v); !strings.Contains(text, want) {
			t.Errorf("/v1/stats has %s = %d, /metrics does not", name, v)
		}
	}
}

func TestServerPlacement(t *testing.T) {
	base := distTestServer(t, 2)
	status, payload := distPost(t, base, "/v1/sessions", CreateSessionRequest{
		Name: "g", Dataset: "german",
		Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("create session: %d %s", status, payload)
	}

	queries := []string{
		`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		`USE German UPDATE(Housing) = 1 OUTPUT AVG(POST(Credit))`,
	}
	for _, src := range queries {
		var local, workers, auto WhatIfResponse
		if st, p := distPost(t, base, "/v1/sessions/g/whatif", QueryRequest{Query: src, Placement: "local"}, &local); st != 200 {
			t.Fatalf("local: %d %s", st, p)
		}
		if st, p := distPost(t, base, "/v1/sessions/g/whatif", QueryRequest{Query: src, Placement: "workers"}, &workers); st != 200 {
			t.Fatalf("workers: %d %s", st, p)
		}
		if st, p := distPost(t, base, "/v1/sessions/g/whatif", QueryRequest{Query: src}, &auto); st != 200 {
			t.Fatalf("auto: %d %s", st, p)
		}
		ref := stableOf(&local)
		for name, r := range map[string]*WhatIfResponse{"workers": &workers, "auto": &auto} {
			if got := stableOf(r); got != ref {
				t.Fatalf("%s: placement %s diverges:\n%s\nvs local\n%s", src, name, got, ref)
			}
		}
		if workers.Placement != "workers" || workers.RemoteWorkers == 0 {
			t.Fatalf("workers response placement=%q remote=%d", workers.Placement, workers.RemoteWorkers)
		}
		if auto.Placement != "workers" {
			t.Fatalf("auto placement resolved to %q with live workers", auto.Placement)
		}
	}

	// A how-to runs in the serving process, with or without live workers.
	howto := `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	var hAuto, hLocal HowToResponse
	if st, p := distPost(t, base, "/v1/sessions/g/howto", QueryRequest{Query: howto}, &hAuto); st != 200 {
		t.Fatalf("howto auto: %d %s", st, p)
	}
	if st, p := distPost(t, base, "/v1/sessions/g/howto", QueryRequest{Query: howto, Placement: "local"}, &hLocal); st != 200 {
		t.Fatalf("howto local: %d %s", st, p)
	}
	if hLocal.Objective != hAuto.Objective || hLocal.Base != hAuto.Base || len(hLocal.Choices) != len(hAuto.Choices) {
		t.Fatalf("howto auto diverges: %+v vs %+v", hAuto, hLocal)
	}
	if st, _ := distPost(t, base, "/v1/sessions/g/howto", QueryRequest{Query: howto, Placement: "workers"}, nil); st != http.StatusBadRequest {
		t.Fatalf("howto placement=workers status %d, want 400", st)
	}

	// Stats surface the coordinator gauges and worker registry.
	var stats StatsResponse
	if st, p := distPost(t, base, "/v1/stats", nil, nil); st != http.StatusMethodNotAllowed && st != 200 {
		t.Fatalf("stats: %d %s", st, p)
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Dist.WorkersAlive != 2 || len(stats.Dist.Workers) != 2 {
		t.Fatalf("dist stats workers: %+v", stats.Dist)
	}
	if stats.Dist.RemoteEvals == 0 || stats.Dist.FramesShipped == 0 {
		t.Fatalf("dist gauges not moving: %+v", stats.Dist.Stats)
	}
}

// TestPlacementValidated: a placement the query cannot run under is a 400
// naming the valid values on every way in — the scoped routes, a batch
// element (element-local, the batch itself answers 200) and job submission,
// which must not queue a job doomed to fail when it runs. "fit" is as
// unknown as any other value.
func TestPlacementValidated(t *testing.T) {
	base := distTestServer(t, 1)
	if st, p := distPost(t, base, "/v1/sessions", CreateSessionRequest{Name: "g", Dataset: "german"}, nil); st != 200 {
		t.Fatalf("create session: %d %s", st, p)
	}
	whatif := `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`
	howto := `USE German HOWTOUPDATE Status LIMIT UPDATES <= 1 TOMAXIMIZE COUNT(Credit = 1)`
	const unknown, whatIfOnly = "(want local|workers)", "applies to what-if queries only"
	for _, tc := range []struct {
		name, path string
		body       any
		want       string // substring of the 400's error
	}{
		{"whatif fit", "/v1/sessions/g/whatif", QueryRequest{Query: whatif, Placement: "fit"}, `unknown placement "fit" ` + unknown},
		{"whatif bogus", "/v1/sessions/g/whatif", QueryRequest{Query: whatif, Placement: "bogus"}, unknown},
		{"howto fit", "/v1/sessions/g/howto", QueryRequest{Query: howto, Placement: "fit"}, `unknown placement "fit" ` + unknown},
		{"howto bogus", "/v1/sessions/g/howto", QueryRequest{Query: howto, Placement: "bogus"}, unknown},
		{"job whatif fit", "/v1/jobs", JobRequest{Session: "g", Query: whatif, Placement: "fit"}, unknown},
		{"job whatif bogus", "/v1/jobs", JobRequest{Session: "g", Kind: "whatif", Query: whatif, Placement: "bogus"}, unknown},
		{"job howto fit", "/v1/jobs", JobRequest{Session: "g", Kind: "howto", Query: howto, Placement: "fit"}, unknown},
		{"job howto workers", "/v1/jobs", JobRequest{Session: "g", Kind: "howto", Query: howto, Placement: "workers"}, whatIfOnly},
		{"job batch element", "/v1/jobs", JobRequest{Session: "g", Kind: "batch", Queries: []BatchQuery{
			{Query: whatif}, {Kind: "howto", Query: howto, Placement: "workers"},
		}}, whatIfOnly},
	} {
		st, payload := distPost(t, base, tc.path, tc.body, nil)
		var body struct{ Error string }
		if err := json.Unmarshal(payload, &body); err != nil {
			t.Fatalf("%s: %v (%s)", tc.name, err, payload)
		}
		if st != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
			t.Errorf("%s: status %d error %q, want 400 containing %q", tc.name, st, body.Error, tc.want)
		}
	}

	var batch BatchResponse
	if st, p := distPost(t, base, "/v1/sessions/g/batch", BatchRequest{Queries: []BatchQuery{
		{Query: whatif, Placement: "fit"}, {Query: whatif, Placement: "bogus"}, {Query: whatif, Placement: "workers"},
	}}, &batch); st != 200 {
		t.Fatalf("batch: %d %s", st, p)
	}
	if batch.Errors != 2 || batch.Results[2].WhatIf == nil {
		t.Fatalf("batch: %d errors, third element %+v; want the two bad placements to fail alone", batch.Errors, batch.Results[2])
	}
	for _, r := range batch.Results[:2] {
		if !strings.Contains(r.Error, unknown) {
			t.Errorf("batch element %d error %q, want it to name the valid placements", r.Index, r.Error)
		}
	}
}

// TestServerPlacementJob submits a distributed what-if job and polls it to
// completion: remote shard completion must surface through the job's
// shards_done/shards_total progress gauge.
func TestServerPlacementJob(t *testing.T) {
	base := distTestServer(t, 2)
	if st, p := distPost(t, base, "/v1/sessions", CreateSessionRequest{
		Name: "g", Dataset: "german",
		Options: &SessionOptions{Seed: 7, ShardRows: 256},
	}, nil); st != 200 {
		t.Fatalf("create session: %d %s", st, p)
	}
	var local WhatIfResponse
	if st, p := distPost(t, base, "/v1/sessions/g/whatif", QueryRequest{
		Query: `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, Placement: "local",
	}, &local); st != 200 {
		t.Fatalf("local: %d %s", st, p)
	}

	var job JobInfo
	if st, p := distPost(t, base, "/v1/jobs", JobRequest{
		Session: "g", Kind: "whatif",
		Query:     `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
		Placement: "workers",
	}, &job); st != 200 {
		t.Fatalf("submit: %d %s", st, p)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == "done" || job.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != "done" {
		t.Fatalf("job %s: %s", job.State, job.Error)
	}
	if want := int64(local.ShardPlan); job.Progress.ShardsTotal != want || job.Progress.ShardsDone != want {
		t.Fatalf("job shards progress %d/%d, want %d/%d", job.Progress.ShardsDone, job.Progress.ShardsTotal, want, want)
	}
	raw, err := json.Marshal(job.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res WhatIfResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Value != local.Value || res.Placement != "workers" {
		t.Fatalf("job result value=%v placement=%q, want value=%v placement=workers", res.Value, res.Placement, local.Value)
	}
}
