package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"hyper/internal/dataset"
	"hyper/internal/obs"
	"hyper/internal/server"
)

// warmServe is warm_serve: hyperd with a 5,000-row german session (its
// default size), sixteen what-if templates evaluated once in set-up so that
// every artifact of the measured phase is a cache hit (the working set is
// far below the 512-entry cache), and two keep-alive clients.
type warmServe struct {
	d     *daemon
	seed  int64
	rows  int
	specs []germanSpec
	body  [][]byte // one pre-encoded request per template
	refs  []server.WhatIfResponse
}

const sessionName = "german"
const whatIfPath = "/v1/sessions/" + sessionName + "/whatif"

func setupWarmServe(cfg runConfig) (workload, error) {
	d, err := startDaemon(server.Config{}, 0, cfg.clients)
	if err != nil {
		return nil, err
	}
	w := &warmServe{d: d, seed: cfg.seed, specs: germanTemplates(cfg.seed, 16)}
	if w.rows, err = d.createSession(sessionName, cfg.rows(warmRows), cfg.seed); err != nil {
		d.close()
		return nil, err
	}
	w.refs = make([]server.WhatIfResponse, len(w.specs))
	for i, s := range w.specs {
		w.body = append(w.body, mustJSON(server.QueryRequest{Query: s.text()}))
		if err := d.do(http.MethodPost, whatIfPath, w.body[i], &w.refs[i]); err != nil {
			d.close()
			return nil, fmt.Errorf("pre-warming template %d: %w", i, err)
		}
	}
	return w, nil
}

func (w *warmServe) templates() int { return len(w.specs) }

// auxOverhead is the opSample.aux slot holding client latency minus the
// server-reported total_ms.
const auxOverhead = 0

// httpWhatIf posts one what-if and fills the sample from the answer: the
// value for the verifier, total_ms, and — when the request asked for the
// trace — the program's own stage spans.
func httpWhatIf(d *daemon, path string, body []byte, tmpl int, m mode, rec *spanRecorder) (opSample, *server.WhatIfResponse) {
	s := opSample{tmpl: tmpl, mode: m}
	r := rec
	if m == modeTraced {
		path += "?trace=1"
	}
	opID := r.newOp()
	root := r.start(opID, -1, "op")
	call := r.start(opID, root, "http.roundtrip")
	var resp server.WhatIfResponse
	t0 := time.Now()
	err := d.do(http.MethodPost, path, body, &resp)
	s.ms = ms(time.Since(t0))
	r.end(call)
	if err != nil {
		r.end(root)
		s.fail = true
		return s, nil
	}
	s.value, s.sum, s.count = resp.Value, resp.Sum, resp.Count
	s.total, s.models = resp.TotalMs, resp.TrainedModels
	s.aux[auxOverhead] = s.ms - resp.TotalMs
	if resp.Trace != nil {
		s.staged = true
		r.graft(opID, call, resp.Trace.Root)
		st := map[string]float64{}
		stageTimes(resp.Trace.Root, st)
		s.view, s.block, s.plan, s.train = st["view"], st["blocks"], st["plan"], st["train"]
		s.eval = st["eval_shards"] + st["fold"] + st["dist_eval"] // dist_eval replaces the local loop when workers-placed
	}
	r.end(root)
	return s, &resp
}

// stageTimes sums a rendered span tree's durations by span name (ms). It
// stops at worker_eval / worker_fit: below them hang the workers' own trees,
// whose stages run in parallel inside the coordinator's dist span and would
// be counted twice.
func stageTimes(sj *obs.SpanJSON, into map[string]float64) {
	if sj == nil {
		return
	}
	into[sj.Name] += sj.DurMs
	if sj.Name == "worker_eval" || sj.Name == "worker_fit" {
		return
	}
	for _, c := range sj.Children {
		stageTimes(c, into)
	}
}

func sameWire(a, b *server.WhatIfResponse) bool {
	return a.Value == b.Value && a.Sum == b.Sum && a.Count == b.Count
}

func (w *warmServe) op(_, tmpl int, m mode, rec *spanRecorder) opSample {
	s, resp := httpWhatIf(w.d, whatIfPath, w.body[tmpl], tmpl, m, rec)
	if resp != nil && !sameWire(resp, &w.refs[tmpl]) {
		s.fail = true // a warm answer contradicts the cold one from set-up
	}
	return s
}

// verify asks every template once more with shards=1: the serial answer
// must equal the cold answer of set-up, which every warm answer was already
// held to as it arrived.
func (w *warmServe) verify([]opSample) (checks, failed int, notes []string) {
	for i, s := range w.specs {
		checks++
		var resp server.WhatIfResponse
		err := w.d.post(whatIfPath, server.QueryRequest{Query: s.text(), Shards: 1}, &resp)
		if err != nil || !sameWire(&resp, &w.refs[i]) {
			failed++
			notes = append(notes, fmt.Sprintf("template %d: shards=1 answer differs from the cold answer (%v)", i, err))
		}
	}
	return checks, failed, notes
}

// germanTruth compares served answers with the structural equations over
// the benchmark's own rebuild of the session's rows.
func germanTruth(specs []germanSpec, refs []server.WhatIfResponse, rows int, seed int64, tolerancePct float64) (float64, int, bool) {
	world := dataset.GermanSyn(rows, dataSeed(seed)).World
	errs := make([]float64, len(specs))
	parallelEach(len(specs), func(i int) {
		errs[i] = -1
		if want := specs[i].truth(world); want != 0 {
			errs[i] = 100 * math.Abs(refs[i].Value-want) / math.Abs(want)
		}
	})
	return truthVerdict(errs, tolerancePct)
}

func (w *warmServe) truth() (float64, int, bool) {
	return germanTruth(w.specs, w.refs, w.rows, w.seed, 15)
}

func (w *warmServe) probes(out map[string]float64, samples []opSample, rec *spanRecorder) {
	g := dataset.GermanSyn(w.rows, dataSeed(w.seed))
	g.DB.SetVersion(1) // server sessions are versioned from birth; fingerprints fold the version in
	texts := specTexts(w.specs)
	probeHyperQL(out, g.DB, texts)
	probePlan(out, g.DB, g.Rel(), texts)
	sessionCacheMetrics(out, w.d)

	out["server.overhead_ms"] = median(overheads(samples))

	h := w.d.srv.Handler()
	out["server.handler_ms"] = timeMs(200, nil, func() {
		req := httptest.NewRequest(http.MethodPost, whatIfPath, bytes.NewReader(w.body[0]))
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
	out["server.stats_ms"] = timeMs(20, nil, func() { _ = w.d.get("/v1/stats", nil) })
	out["server.metrics_scrape_ms"] = timeMs(20, nil, func() { _ = w.d.get("/metrics", nil) })

	rate := func(clients int) float64 {
		s, _, _, wall := runLoop(400*time.Millisecond, clients, []mode{modeUntraced}, w, nil)
		return float64(len(s)) / wall.Seconds()
	}
	if one := rate(1); one > 0 {
		out["server.scaling_2c"] = rate(clientCount()) / one
	}
	probeJobs(out, w.d, texts)
}

// sessionCacheMetrics reads the session's engine and plan cache counters
// from GET /v1/sessions/{name}.
func sessionCacheMetrics(out map[string]float64, d *daemon) {
	var info server.SessionInfo
	if err := d.get("/v1/sessions/"+sessionName, &info); err != nil {
		return
	}
	out["engine.cache_hit_ratio"] = info.Cache.HitRate()
	out["engine.cache_entries"] = float64(info.Cache.Entries)
	out["engine.cache_evictions"] = float64(info.Cache.Evictions)
	if n := info.Plan.Hits + info.Plan.Misses; n > 0 {
		out["plan.cache_hit_ratio"] = float64(info.Plan.Hits) / float64(n)
	}
}

// probeJobs pushes what-ifs through the asynchronous job API and cancels
// one brute-force how-to mid-solve: submit-to-done and queue wait per job,
// and the cancellation round trip.
func probeJobs(out map[string]float64, d *daemon, texts []string) {
	const jobs = 60
	terminal := func(state string) bool {
		return state == "done" || state == "failed" || state == "cancelled" || state == "expired"
	}
	await := func(id string, until func(server.JobInfo) bool) (server.JobInfo, bool) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			var info server.JobInfo
			if err := d.get("/v1/jobs/"+id, &info); err != nil {
				return info, false
			}
			if until(info) {
				return info, true
			}
			time.Sleep(time.Millisecond)
		}
		return server.JobInfo{}, false
	}
	var done, wait []float64
	for i := 0; i < jobs; i++ {
		var job server.JobInfo
		t0 := time.Now()
		if err := d.post("/v1/jobs", server.JobRequest{Session: sessionName, Query: texts[i%len(texts)]}, &job); err != nil {
			return
		}
		info, ok := await(job.ID, func(j server.JobInfo) bool { return terminal(j.State) })
		if !ok || info.State != "done" {
			return
		}
		done = append(done, ms(time.Since(t0)))
		wait = append(wait, info.WaitMs)
	}
	out["jobs.submit_to_done_ms"] = median(done)
	out["jobs.queue_wait_ms"] = median(wait)

	var brute server.JobInfo
	t0 := time.Now()
	err := d.post("/v1/jobs", server.JobRequest{
		Session: sessionName, Kind: "howto", Method: "brute",
		Query: "USE German HOWTOUPDATE Status, Savings, Housing, CreditAmount TOMAXIMIZE COUNT(Credit = 1)",
	}, &brute)
	if err != nil {
		return
	}
	if _, ok := await(brute.ID, func(j server.JobInfo) bool { return j.State == "running" || terminal(j.State) }); !ok {
		return
	}
	if err := d.do(http.MethodDelete, "/v1/jobs/"+brute.ID, nil, nil); err != nil {
		return
	}
	if _, ok := await(brute.ID, func(j server.JobInfo) bool { return terminal(j.State) }); ok {
		out["jobs.cancel_ms"] = ms(time.Since(t0))
	}
}

func (w *warmServe) close() { w.d.close() }
