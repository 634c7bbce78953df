package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/ml"
	"hyper/internal/relation"
	"hyper/internal/server"
)

// appendMix is append_mix: hyperd with a german session, and one client
// cycling {append a CSV batch of 1% of the initial rows; what-if at the new head; the same what-if
// pinned to snapshot 1}. The primary operation is the whole cycle, so a
// read-path gain bought with per-version state shows up in it as append
// latency; the three parts are reported separately as layer metrics.
type appendMix struct {
	d     *daemon
	seed  int64
	rows  int // rows at snapshot 1
	batch int // rows per append
	specs []germanSpec
	head  [][]byte // head request per template
	pin   [][]byte // the same, pinned to snapshot 1
	// batches are CSV bodies cut from one generation of rows + every row the
	// run may append: the generator draws rows in order, so its first `rows`
	// rows are exactly what the server built from the same seed.
	batches []string

	mu      sync.Mutex
	cycles  []appendCycle
	pinned  []*server.WhatIfResponse // first pinned answer per template
	heapAtK float64
}

// appendCycle is one logged cycle: the history the offline verifier checks.
type appendCycle struct {
	tmpl                   int
	version                int64
	rows                   int
	head, headSum, headCnt float64
}

const (
	appendTemplates = 4
	// appendMaxCycles bounds the pre-generated batches; the loop stops when
	// they run out. Every cycle grows the session by 1%, so the cap also
	// bounds how far the data drifts from its initial size: a run that
	// reaches the cap has measured exactly the same versions as any other.
	appendMaxCycles = 96
	// appendHeapCycle is the cycle after which retained heap is sampled: a
	// fixed version count, so the metric does not grow with the number of
	// cycles a faster machine completes.
	appendHeapCycle = 8
)

// Slots of opSample.aux used by append_mix.
const (
	auxAppendMs = iota
	auxHeadMs
	auxPinnedMs
	auxShardsFitted
	auxShardsReused
)

func setupAppendMix(cfg runConfig) (workload, error) {
	d, err := startDaemon(server.Config{}, 0, 1)
	if err != nil {
		return nil, err
	}
	w := &appendMix{d: d, seed: cfg.seed, batch: cfg.rows(appendBatchRows), specs: germanTemplates(cfg.seed, appendTemplates)}
	if w.rows, err = d.createSession(sessionName, cfg.rows(appendRows), cfg.seed); err != nil {
		d.close()
		return nil, err
	}
	full := dataset.GermanSyn(w.rows+appendMaxCycles*w.batch, dataSeed(cfg.seed))
	w.batches = appendBatches(full.Rel(), w.rows, appendMaxCycles, w.batch)
	w.pinned = make([]*server.WhatIfResponse, len(w.specs))
	for _, s := range w.specs {
		w.head = append(w.head, mustJSON(server.QueryRequest{Query: s.text()}))
		w.pin = append(w.pin, mustJSON(server.QueryRequest{Query: s.text(), Snapshot: 1}))
	}
	return w, nil
}

func (w *appendMix) templates() int { return len(w.specs) }

// exhausted stops the loop when the next round would run out of batches.
func (w *appendMix) exhausted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.cycles)+len(w.specs) > len(w.batches)
}

const rowsPath = "/v1/sessions/" + sessionName + "/rows"

func (w *appendMix) op(_, tmpl int, m mode, rec *spanRecorder) opSample {
	w.mu.Lock()
	cycle := len(w.cycles)
	w.mu.Unlock()
	body := mustJSON(server.AppendRequest{Tables: []server.AppendTable{{Name: "German", Data: w.batches[cycle]}}})

	call := rec.start(rec.newOp(), -1, "http.append")
	var ar server.AppendResponse
	t0 := time.Now()
	err := w.d.do(http.MethodPost, rowsPath, body, &ar)
	appendMs := ms(time.Since(t0))
	rec.end(call)

	s, head := httpWhatIf(w.d, whatIfPath, w.head[tmpl], tmpl, m, rec)
	headMs := s.ms
	p, pinned := httpWhatIf(w.d, whatIfPath, w.pin[tmpl], tmpl, m, rec)
	s.ms = appendMs + headMs + p.ms
	s.aux = [6]float64{auxAppendMs: appendMs, auxHeadMs: headMs, auxPinnedMs: p.ms,
		auxShardsFitted: float64(ar.ShardsFitted), auxShardsReused: float64(ar.ShardsReused)}

	w.mu.Lock()
	defer w.mu.Unlock()
	// The cycle is logged even when it failed, so the next one appends the
	// next batch instead of colliding with this one's keys.
	c := appendCycle{tmpl: tmpl, version: ar.Version, rows: ar.Rows}
	if err != nil || head == nil || pinned == nil {
		s.fail = true
		w.cycles = append(w.cycles, c)
		return s
	}
	c.head, c.headSum, c.headCnt = head.Value, head.Sum, head.Count
	w.cycles = append(w.cycles, c)
	if first := w.pinned[tmpl]; first == nil {
		w.pinned[tmpl] = pinned
	} else if !sameWire(first, pinned) {
		s.fail = true // snapshot 1 changed under an append
	}
	if pinned.Snapshot != 1 || head.Snapshot != ar.Version {
		s.fail = true // a read saw a version other than the one it asked for
	}
	if len(w.cycles) == appendHeapCycle {
		w.heapAtK = retainedHeapMB()
	}
	return s
}

func (w *appendMix) sampledHeapMB() (float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.heapAtK, w.heapAtK > 0
}

// fresh evaluates a template in-process over the first rows rows of the
// generated data: a session that never saw an append.
func (w *appendMix) fresh(tmpl, rows int) (*hyper.WhatIfResult, error) {
	g := dataset.GermanSyn(rows, dataSeed(w.seed))
	s := hyper.NewSession(g.DB, g.Model)
	s.SetOptions(hyper.Options{Seed: w.seed})
	return s.WhatIf(w.specs[tmpl].text())
}

// verify checks the logged history offline against the append-only
// snapshot-isolation contract, on the answers the client received: versions
// are consecutive and each holds exactly one more batch; snapshot 1 never
// changed (held online, per answer) and equals a fresh session over the
// initial rows; and three sampled head versions equal fresh sessions over
// the same row prefix.
func (w *appendMix) verify([]opSample) (checks, failed int, notes []string) {
	w.mu.Lock()
	cycles := append([]appendCycle(nil), w.cycles...)
	w.mu.Unlock()
	bad := func(format string, args ...any) {
		failed++
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	for i, c := range cycles {
		checks++
		if c.version != int64(i+2) || c.rows != w.rows+(i+1)*w.batch {
			bad("cycle %d: published version %d with %d rows, want version %d with %d rows",
				i, c.version, c.rows, i+2, w.rows+(i+1)*w.batch)
		}
	}
	if len(cycles) == 0 {
		return checks, failed, notes
	}
	type check struct {
		tmpl, rows  int
		v, sum, cnt float64
		what        string
	}
	var todo []check
	for t, p := range w.pinned {
		if p != nil {
			todo = append(todo, check{t, w.rows, p.Value, p.Sum, p.Count, "snapshot 1"})
			break
		}
	}
	for _, i := range []int{0, len(cycles) / 2, len(cycles) - 1} {
		c := cycles[i]
		todo = append(todo, check{c.tmpl, c.rows, c.head, c.headSum, c.headCnt, fmt.Sprintf("head version %d", c.version)})
	}
	results := make([]string, len(todo))
	parallelEach(len(todo), func(i int) {
		p := todo[i]
		res, err := w.fresh(p.tmpl, p.rows)
		if err != nil || res.Value != p.v || res.Sum != p.sum || res.Count != p.cnt {
			results[i] = fmt.Sprintf("%s differs from a fresh session over its %d rows (%v)", p.what, p.rows, err)
		}
	})
	for _, r := range results {
		checks++
		if r != "" {
			bad("%s", r)
		}
	}
	return checks, failed, notes
}

// truth is omitted on append_mix: its answers come from the estimator
// cold_whatif already checks, over data that changes every cycle.
func (w *appendMix) truth() (float64, int, bool) { return 0, 0, true }

func (w *appendMix) probes(out map[string]float64, samples []opSample, rec *spanRecorder) {
	var app, head, pin, fitted, reused []float64
	for _, s := range samples {
		if !s.fail {
			app = append(app, s.aux[auxAppendMs])
			head = append(head, s.aux[auxHeadMs])
			pin = append(pin, s.aux[auxPinnedMs])
			fitted = append(fitted, s.aux[auxShardsFitted])
			reused = append(reused, s.aux[auxShardsReused])
		}
	}
	out["server.append_p50_ms"] = median(app)
	out["server.head_whatif_p50_ms"] = median(head)
	out["server.pinned_whatif_p50_ms"] = median(pin)
	out["server.append_shards_fitted"] = mean(fitted)
	out["server.append_shards_reused"] = mean(reused)
	sessionCacheMetrics(out, w.d)
	var info server.SessionInfo
	if err := w.d.get("/v1/sessions/"+sessionName, &info); err == nil {
		out["server.snapshots_end"] = float64(info.Snapshots)
		if extra := info.Snapshots - 1 - appendHeapCycle; extra > 0 && w.heapAtK > 0 {
			out["server.heap_mb_per_version"] = (retainedHeapMB() - w.heapAtK) / float64(extra)
		}
	}

	// Direct probes on the benchmark's own copy of the initial rows and the
	// first batch.
	base := dataset.GermanSyn(w.rows, dataSeed(w.seed))
	probeHyperQL(out, base.DB, specTexts(w.specs))
	rel := base.Rel()
	var tuples []relation.Tuple
	probeSpan(rec, "relation.parse_append", func() {
		out["relation.parse_append_ms"] = timeMs(5, nil, func() {
			tuples, _ = rel.ParseAppendRows(strings.NewReader(w.batches[0]), 0)
		})
	})
	var ext *relation.Database
	probeSpan(rec, "relation.extend", func() {
		out["relation.extend_ms"] = timeMs(5, nil, func() {
			ext, _ = base.DB.Extend(map[string][]relation.Tuple{"German": tuples})
		})
	})
	if ext == nil {
		return
	}
	var digest *ml.RelationDigest
	probeSpan(rec, "ml.digest_advance", func() {
		out["ml.digest_advance_ms"] = timeMs(5,
			func() { digest = ml.NewRelationDigest(0); digest.Advance(rel) },
			func() { digest.Advance(ext.Relation("German")) })
	})
}

func (w *appendMix) close() { w.d.close() }
