package howto

import (
	"context"
	"sort"
	"sync/atomic"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
	"hyper/internal/shard"
)

// scored is one candidate update evaluated under every objective query
// (vals[i] is the what-if value of objective i).
type scored struct {
	attr string
	spec hyperql.UpdateSpec
	vals []float64
}

// score evaluates every objective's base and every candidate's what-if value
// across a worker pool sized by GOMAXPROCS, filling t.bases and t.vars (in
// deterministic (attribute, candidate) order regardless of completion
// order). A job binds its update to the engine.Prepared of its objective and
// attribute, which engine.Prepare keeps in the cache in o.Engine (the first
// job needing it builds it while the others wait), so the view lookup, WHEN
// set, backdoor set and tuple-class partition are computed once per
// (objective, attribute), not per candidate, and a session's repeated
// how-to prepares nothing; the base objective is the identity update of the
// first attribute's. The jobs share that cache (views, blocks, Prepareds and
// trained estimators are concurrency-safe), so scoring parallelizes without
// changing any result.
//
// The dispatch queue puts the base and then the first candidate of each
// attribute ahead of the rest, so the pool starts every attribute's
// estimator set as early as it can. No barrier follows them: the shared cache builds each cold artifact
// single-flight, so a worker that reaches a candidate whose set another
// worker is still training waits inside the cache for exactly that set
// while the rest of the pool keeps scoring.
//
// ctx cancellation is observed between candidates (and inside each
// candidate's engine evaluation); o.Progress, when set, receives one
// "candidates" update per scored candidate.
func (t *table) score(ctx context.Context, db *relation.Database, model *causal.Model, o Options) error {
	type job struct {
		attr string
		spec hyperql.UpdateSpec
	}
	attrs := t.qs[0].Attrs
	// Job 0 is the base objective. It is dispatched first and its error is
	// first in job order, so a failing base fails the how-to as it did when
	// it ran before the pool.
	jobs := []job{{attr: attrs[0], spec: identity(attrs[0])}}
	var first, rest []int
	for _, attr := range attrs {
		for ci, spec := range t.cands[attr] {
			if ci == 0 {
				first = append(first, len(jobs))
			} else {
				rest = append(rest, len(jobs))
			}
			jobs = append(jobs, job{attr: attr, spec: spec})
		}
	}
	ctx, sp := obs.Start(ctx, "score_candidates")
	defer sp.End()
	sp.Set("candidates", len(jobs)-1)
	sp.Set("attrs", len(attrs))
	// Cost-based scheduling: run attributes of low base-column cardinality
	// first — their frequency estimators are cheapest to train and their
	// candidates complete fastest, so the pool drains the cheap work while
	// the expensive estimators warm, query order breaking ties. This reorders
	// only the dispatch queue; out is indexed by the original job order, so
	// results (and the deterministic first-error choice) are unchanged.
	card := make(map[string]int, len(attrs))
	for _, attr := range attrs {
		card[attr] = t.srcs[attr].Rel.Coded(t.srcs[attr].Col).Card()
	}
	for _, idxs := range [][]int{first, rest} {
		sort.SliceStable(idxs, func(a, b int) bool {
			return card[jobs[idxs[a]].attr] < card[jobs[idxs[b]].attr]
		})
	}
	queue := append(append([]int{0}, first...), rest...)
	// The shard fan-out knob governs candidate-level parallelism too: a
	// how-to is shard-parallel across candidates, each candidate a what-if
	// over the shared cache. Results are independent of the pool width (the
	// output slice is in deterministic candidate order and every candidate's
	// engine evaluation reduces over the canonical shard plan).
	pool := shard.Rows(len(queue), 1) // one candidate per slot
	workers := pool.Workers(o.Engine.Shards)
	eo := o.Engine
	if workers > 1 {
		// Candidate-level parallelism already saturates the cores; keep the
		// engine's nested tuple-evaluation fan-out from multiplying it.
		eo = eo.WithShards(1)
	}
	// The per-candidate engine progress is intentionally not forwarded: a
	// how-to reports candidate-level progress, not the tuples of each
	// underlying what-if.
	eo.Progress = nil
	out := make([][]float64, len(jobs))
	errs := make([]error, len(jobs))
	var scoredCount atomic.Int64
	poolErr := shard.Run(ctx, pool, workers, func(_, qi, _, _ int) error {
		ji := queue[qi]
		j := jobs[ji]
		vals := make([]float64, len(t.qs))
		for oi, q := range t.qs {
			p, err := engine.Prepare(ctx, db, model, whatIf(q, []hyperql.UpdateSpec{identity(j.attr)}), eo)
			if err != nil {
				errs[ji] = err
				return err
			}
			res, err := p.Evaluate(ctx, []hyperql.UpdateSpec{j.spec}, eo)
			if err != nil {
				errs[ji] = err
				return err
			}
			vals[oi] = res.Value
		}
		out[ji] = vals
		if ji > 0 && o.Progress != nil {
			o.Progress("candidates", int(scoredCount.Add(1)), len(jobs)-1)
		}
		return nil
	})
	// First error in job order, so failures are as deterministic as results;
	// poolErr alone means the context ended before any candidate failed.
	for _, err := range append(errs, poolErr) {
		if err != nil {
			return err
		}
	}
	t.bases = out[0]
	t.vars = make([]scored, len(jobs)-1)
	for ji, j := range jobs[1:] {
		t.vars[ji] = scored{attr: j.attr, spec: j.spec, vals: out[ji+1]}
	}
	return nil
}
