package main

import (
	"context"
	"runtime"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/ml"
	"hyper/internal/plan"
	"hyper/internal/relation"
	"hyper/internal/sqlmini"
)

// Direct probes: each times one layer through its public functions, on the
// workload's own data, from outside the program. They run after the
// measured phase of a traced run, a fixed number of times each, and report
// medians.

// timeMs returns the median wall time of reps runs of fn, in ms. setup, when
// non-nil, runs before each rep outside the timed section.
func timeMs(reps int, setup, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		fn()
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

// probeSpan records one probe call as an operation of its own in the span
// file, so the direct calls appear beside the measured operations.
func probeSpan(rec *spanRecorder, name string, fn func()) {
	op := rec.newOp()
	rec.timed(op, -1, "probe:"+name, fn)
}

func mustWhatIf(text string) *hyperql.WhatIf {
	q, err := hyperql.ParseWhatIf(text)
	if err != nil {
		panic("bench: generated query does not parse: " + err.Error())
	}
	return q
}

// probeHyperQL times parsing and plan fingerprinting per query text.
func probeHyperQL(out map[string]float64, db *relation.Database, texts []string) {
	const reps = 200
	var parse, fp []float64
	for _, t := range texts {
		t0 := time.Now()
		var q hyperql.Query
		for i := 0; i < reps; i++ {
			q, _ = hyperql.Parse(t)
		}
		parse = append(parse, float64(time.Since(t0).Microseconds())/reps)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			_ = plan.Fingerprint(db, q)
		}
		fp = append(fp, float64(time.Since(t0).Microseconds())/reps)
	}
	out["hyperql.parse_us"] = median(parse)
	out["hyperql.fingerprint_us"] = median(fp)
}

// probePlan times the planner against the view relation the engine would
// resolve: compile on an empty cache (column stats included, as a cold
// query pays them), the same lookup warm, and the WHEN program's first
// application (column interning included).
func probePlan(out map[string]float64, db *relation.Database, view *relation.Relation, texts []string) {
	var compile, hit, apply []float64
	for _, t := range texts {
		q := mustWhatIf(t)
		pc := plan.NewCache(0)
		t0 := time.Now()
		p, _ := pc.WhatIf(db, "probe", q, view)
		compile = append(compile, ms(time.Since(t0)))
		const reps = 100
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			pc.WhatIf(db, "probe", q, view)
		}
		hit = append(hit, float64(time.Since(t0).Microseconds())/reps)
		if q.When != nil {
			inS := make([]bool, view.Len())
			t0 = time.Now()
			pc.Apply(p, q, view, inS)
			apply = append(apply, ms(time.Since(t0)))
		}
	}
	out["plan.compile_ms"] = median(compile)
	out["plan.hit_us"] = median(hit)
	out["plan.apply_ms"] = median(apply)
}

// probeEngine times the engine's public entry points on fresh caches: the
// dry run (everything up to the tuple loop), the partial evaluation of
// every shard (what a worker does) and the merge of its partials.
func probeEngine(out map[string]float64, rec *spanRecorder, db *relation.Database, model *causal.Model, seed int64, texts []string) {
	var dry, partial, merge, shards, hitRatio, entries, evictions []float64
	ctx := context.Background()
	for _, t := range texts {
		q := mustWhatIf(t)
		opts := func() engine.Options {
			return engine.Options{Seed: seed, Cache: engine.NewCache(), Plans: plan.NewCache(0)}
		}
		probeSpan(rec, "engine.dryrun", func() {
			o := opts()
			o.DryRun = true
			t0 := time.Now()
			_, _ = engine.EvaluateContext(ctx, db, model, q, o)
			dry = append(dry, ms(time.Since(t0)))
		})
		nShards, _, err := engine.PlanContext(ctx, db, model, q, opts())
		if err != nil {
			continue
		}
		all := make([]int, nShards)
		for i := range all {
			all[i] = i
		}
		var pr *engine.PartialResult
		probeSpan(rec, "engine.eval_partial", func() {
			o := opts()
			t0 := time.Now()
			pr, err = engine.EvaluatePartialContext(ctx, db, model, q, o, all)
			partial = append(partial, ms(time.Since(t0)))
			if st := o.Cache.Stats(); st.Hits+st.Misses > 0 {
				hitRatio = append(hitRatio, st.HitRate())
				entries = append(entries, float64(st.Entries))
				evictions = append(evictions, float64(st.Evictions))
			}
		})
		if err != nil {
			continue
		}
		probeSpan(rec, "engine.merge", func() {
			t0 := time.Now()
			_, _ = engine.MergePartials(pr.Meta, pr.Partials)
			merge = append(merge, float64(time.Since(t0).Nanoseconds())/1000)
		})
		shards = append(shards, float64(nShards))
	}
	out["engine.dryrun_ms"] = median(dry)
	out["engine.eval_partial_ms"] = median(partial)
	out["engine.merge_us"] = median(merge)
	out["engine.cache_hit_ratio"] = mean(hitRatio)
	out["engine.cache_entries"] = median(entries)
	out["engine.cache_evictions"] = median(evictions)
	out["shard.plan_shards"] = median(shards)
}

// probeShardSpeedup runs cold what-ifs serially (Shards=1) and at full
// fan-out (Shards=GOMAXPROCS), interleaved, and reports the ratio with its
// base.
func probeShardSpeedup(out map[string]float64, w *freshWhatIf, texts []string) {
	var serial, parallel []float64
	for _, t := range texts {
		for _, side := range []struct {
			shards int
			into   *[]float64
		}{{1, &serial}, {runtime.GOMAXPROCS(0), &parallel}} {
			sess := w.session(side.shards)
			t0 := time.Now()
			if _, err := sess.WhatIf(t); err == nil {
				*side.into = append(*side.into, ms(time.Since(t0)))
			}
		}
	}
	out["shard.serial_ms"] = median(serial)
	if p := median(parallel); p > 0 {
		out["shard.speedup"] = median(serial) / p
	}
}

// labelColumn extracts a numeric column as the regression target.
func labelColumn(rel *relation.Relation, col string) []float64 {
	ci := rel.Schema().MustIndex(col)
	y := make([]float64, rel.Len())
	for i := range y {
		y[i] = rel.Row(i)[ci].AsFloat()
	}
	return y
}

// probeEncode times the column-stats pass, encoding into a frame and
// interning, and returns the interned frame for the estimator probes.
func probeEncode(out map[string]float64, rel *relation.Relation, feats []string) *ml.Frame {
	out["ml.collect_stats_ms"] = timeMs(3, nil, func() { ml.CollectStats(rel) })
	var fr *ml.Frame
	out["ml.encode_ms"] = timeMs(3, nil, func() {
		fr = ml.NewFrameWorkers(ml.NewEncoder(rel, feats), rel, 0)
	})
	out["ml.intern_ms"] = timeMs(3,
		func() { fr = ml.NewFrameWorkers(ml.NewEncoder(rel, feats), rel, 0) },
		func() { fr.Intern() })
	return fr
}

func identity(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// mallocsOf counts the heap allocations of fn exactly (single goroutine,
// collector idle between the two reads).
func mallocsOf(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// predictNs is the mean prediction time over every frame row, in ns.
func predictNs(fr *ml.Frame, r ml.Regressor) float64 {
	x := make([]float64, fr.Dim())
	n := fr.Rows()
	if n > 20000 {
		n = 20000
	}
	t0 := time.Now()
	sink := 0.0
	for i := 0; i < n; i++ {
		fr.Gather(i, x)
		sink += r.Predict(x)
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// coldWhatIf is cold_whatif: freshWhatIf over German-Syn plus the probes of
// the layers that workload stresses (plan, ml encode and freq fit, shard
// fan-out, the engine's tuple loop).
type coldWhatIf struct {
	*freshWhatIf
	rel *relation.Relation
}

func (w *coldWhatIf) probes(out map[string]float64, samples []opSample, rec *spanRecorder) {
	few := w.texts
	if len(few) > 4 {
		few = []string{w.texts[0], w.texts[4], w.texts[6], w.texts[9]} // no WHEN, pushdown, residual, both+FOR
	}
	probeHyperQL(out, w.db, w.texts)
	probePlan(out, w.db, w.rel, w.texts)
	probeEngine(out, rec, w.db, w.model, w.seed, few)
	probeShardSpeedup(out, w.freshWhatIf, few)

	feats := []string{"Status", "Age", "Sex", "Savings", "Housing"}
	fr := probeEncode(out, w.rel, feats)
	y := labelColumn(w.rel, "Credit")
	rows := identity(w.rel.Len())
	var est *ml.FreqEstimator
	out["ml.freq_fit_ms"] = timeMs(5, nil, func() { est = ml.FitFreqFrame(fr, rows, y, 1) })
	out["ml.freq_fit_allocs"] = mallocsOf(func() { ml.FitFreqFrame(fr, rows, y, 1) })
	out["ml.freq_predict_ns"] = predictNs(fr, est)
	if e := out["engine.eval_ms"]; e > 0 {
		out["engine.tuples_per_s"] = float64(w.rel.Len()) / (e / 1000)
	}
}

// joinForest is join_forest: freshWhatIf over Amazon-Syn plus the probes of
// view building, block decomposition and the forest.
type joinForest struct {
	*freshWhatIf
}

func (w *joinForest) probes(out map[string]float64, samples []opSample, rec *spanRecorder) {
	probeHyperQL(out, w.db, w.texts)
	q := mustWhatIf(w.texts[0])
	var view *relation.Relation
	probeSpan(rec, "sqlmini.view", func() {
		out["sqlmini.view_ms"] = timeMs(3, nil, func() {
			view, _ = sqlmini.RunSelect(w.db, q.Use.Select, "RelevantView")
		})
	})
	probeSpan(rec, "causal.rowblocks", func() {
		out["causal.rowblocks_ms"] = timeMs(3, nil, func() {
			_, n, _ := causal.RowBlocks(w.db, w.model)
			out["causal.blocks"] = float64(n)
		})
	})
	if view == nil {
		return
	}
	probePlan(out, w.db, view, w.texts)
	probeEngine(out, rec, w.db, w.model, w.seed, w.texts[:2])

	feats := []string{"Price", "Category", "Brand", "Quality"}
	fr := probeEncode(out, view, feats)
	y := labelColumn(view, "Rtng")
	params := ml.DefaultForestParams()
	params.Seed = w.seed
	var forest *ml.Forest
	out["ml.forest_fit_ms"] = timeMs(3, nil, func() { forest = ml.FitForestFrame(fr, nil, y, params) })
	out["ml.forest_predict_ns"] = predictNs(fr, forest)
	if e := out["engine.eval_ms"]; e > 0 {
		out["engine.tuples_per_s"] = float64(view.Len()) / (e / 1000)
	}
}
