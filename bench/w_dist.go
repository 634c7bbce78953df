package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"hyper/internal/obs"
	"hyper/internal/server"
)

// distWorkers is dist_workers: hyperd plus two shard workers on loopback
// listeners of their own, in one process. Set-up ships the session's frame
// to the workers; the measured phase sends pairs {placement=workers,
// placement=local} over twelve hot templates, so the only thing that
// differs inside a pair is the transport: ship, RPC, worker-side
// re-preparation and merge. On two shared cores the honest expectation is
// a workers/local ratio above 1.
type distWorkers struct {
	d       *daemon
	seed    int64
	rows    int
	specs   []germanSpec
	workers [][]byte // placement=workers request per template
	local   [][]byte // placement=local request per template
	refs    []server.WhatIfResponse

	firstShipMs float64
	remoteOps   atomic.Int64 // workers-placed queries sent, set-up included
}

// Slots of opSample.aux used by dist_workers (slot 0 stays auxOverhead).
const (
	auxLocalMs = iota + 1
	auxWorkerEvalMs
	auxDegraded
)

func setupDistWorkers(cfg runConfig) (workload, error) {
	// Workers register once and never heartbeat here, so the lease must
	// outlast the run.
	d, err := startDaemon(server.Config{DistTTL: time.Hour}, 2, 1)
	if err != nil {
		return nil, err
	}
	w := &distWorkers{d: d, seed: cfg.seed, specs: germanTemplates(cfg.seed, 12)}
	fail := func(err error) (workload, error) { d.close(); return nil, err }
	if w.rows, err = d.createSession(sessionName, cfg.rows(distRows), cfg.seed); err != nil {
		return fail(err)
	}
	w.refs = make([]server.WhatIfResponse, len(w.specs))
	for i, s := range w.specs {
		w.workers = append(w.workers, mustJSON(server.QueryRequest{Query: s.text(), Placement: "workers"}))
		w.local = append(w.local, mustJSON(server.QueryRequest{Query: s.text(), Placement: "local"}))
		var remote server.WhatIfResponse
		t0 := time.Now()
		if err := d.do("POST", whatIfPath, w.workers[i], &remote); err != nil {
			return fail(fmt.Errorf("pre-warming template %d on workers: %w", i, err))
		}
		if i == 0 {
			w.firstShipMs = ms(time.Since(t0)) // ships the frame to both workers
		}
		w.remoteOps.Add(1)
		if err := d.do("POST", whatIfPath, w.local[i], &w.refs[i]); err != nil {
			return fail(fmt.Errorf("pre-warming template %d locally: %w", i, err))
		}
	}
	return w, nil
}

func (w *distWorkers) templates() int { return len(w.specs) }

// stable renders the placement-independent part of an answer: every
// semantic field, none of the execution diagnostics.
func stable(r *server.WhatIfResponse) string {
	raw, _ := json.Marshal([]any{r.Value, r.Sum, r.Count, r.Mode, r.Estimator, r.Backdoor,
		r.Blocks, r.Disjuncts, r.ViewRows, r.UpdatedRows, r.SampledRows, r.ShardPlan, r.Snapshot})
	return string(raw)
}

// maxSpan returns the longest span of the given name in a rendered tree.
func maxSpan(sj *obs.SpanJSON, name string) float64 {
	if sj == nil {
		return 0
	}
	best := 0.0
	if sj.Name == name {
		best = sj.DurMs
	}
	for _, c := range sj.Children {
		if v := maxSpan(c, name); v > best {
			best = v
		}
	}
	return best
}

func (w *distWorkers) op(_, tmpl int, m mode, rec *spanRecorder) opSample {
	s, remote := httpWhatIf(w.d, whatIfPath, w.workers[tmpl], tmpl, m, rec)
	w.remoteOps.Add(1)
	l, local := httpWhatIf(w.d, whatIfPath, w.local[tmpl], tmpl, m, rec)
	s.aux[auxLocalMs] = l.ms
	if remote == nil || local == nil {
		s.fail = true
		return s
	}
	if remote.Trace != nil {
		// A query waits for its slowest worker.
		s.aux[auxWorkerEvalMs] = maxSpan(remote.Trace.Root, "worker_eval")
	}
	if remote.Degraded {
		s.aux[auxDegraded] = 1
	}
	if stable(remote) != stable(local) || stable(local) != stable(&w.refs[tmpl]) ||
		remote.Placement != "workers" || remote.RemoteWorkers == 0 {
		s.fail = true // the pair disagrees, or the query never left the process
	}
	return s
}

func (w *distWorkers) verify([]opSample) (checks, failed int, notes []string) {
	for i, s := range w.specs {
		checks++
		var resp server.WhatIfResponse
		err := w.d.post(whatIfPath, server.QueryRequest{Query: s.text(), Placement: "local", Shards: 1}, &resp)
		if err != nil || !sameWire(&resp, &w.refs[i]) {
			failed++
			notes = append(notes, fmt.Sprintf("template %d: shards=1 answer differs from the set-up answer (%v)", i, err))
		}
	}
	return checks, failed, notes
}

func (w *distWorkers) truth() (float64, int, bool) {
	return germanTruth(w.specs, w.refs, w.rows, w.seed, 10)
}

func (w *distWorkers) probes(out map[string]float64, samples []opSample, rec *spanRecorder) {
	var workerEval []float64
	degraded := 0.0
	n := len(w.specs)
	for _, s := range samples {
		if s.fail {
			continue
		}
		if s.aux[auxWorkerEvalMs] > 0 {
			workerEval = append(workerEval, s.aux[auxWorkerEvalMs])
		}
		degraded += s.aux[auxDegraded]
	}
	out["dist.first_ship_ms"] = w.firstShipMs
	out["dist.local_p50_ms"] = mixP50(byTemplate(samples, modeUntraced, n, func(s opSample) float64 { return s.aux[auxLocalMs] }))
	if l := out["dist.local_p50_ms"]; l > 0 {
		out["dist.overhead_ratio"] = out["client.op_p50_ms"] / l
	}
	out["dist.worker_eval_ms"] = median(workerEval)
	out["dist.degraded"] = degraded

	var usage server.UsageResponse
	if err := w.d.get("/v1/usage/"+sessionName, &usage); err == nil {
		frame, shipped := 0.0, 0.0
		for _, u := range usage.Shapes {
			if u.Cost != nil {
				frame += float64(u.Cost.FrameBytesShipped)
				shipped += float64(u.Cost.DistBytesShipped)
			}
		}
		out["dist.frame_bytes"] = frame
		if ops := w.remoteOps.Load(); ops > 0 {
			out["dist.bytes_per_op"] = shipped / float64(ops)
		}
	}
	var stats server.StatsResponse
	if err := w.d.get("/v1/stats", &stats); err == nil {
		out["dist.retries"] = float64(stats.Dist.Retries)
	}
	sessionCacheMetrics(out, w.d)
	out["server.overhead_ms"] = median(overheads(samples))
}

// overheads lists client latency minus the server-reported total_ms.
func overheads(samples []opSample) []float64 {
	var xs []float64
	for _, s := range samples {
		if !s.fail {
			xs = append(xs, s.aux[auxOverhead])
		}
	}
	return xs
}

func (w *distWorkers) close() { w.d.close() }
