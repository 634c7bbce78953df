package howto

import (
	"context"
	"sort"
	"sync/atomic"

	"hyper/internal/causal"
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

// scoreCandidates evaluates every candidate's what-if value across a worker
// pool sized by GOMAXPROCS. Candidates are independent what-if queries that
// share the artifact cache in o.Engine (views, blocks, and trained
// estimators are concurrency-safe), so scoring parallelizes without
// changing any result; the returned slice is in deterministic
// (attribute, candidate) order regardless of completion order.
//
// The dispatch queue puts the first candidate of each attribute ahead of the
// rest, so the pool starts every attribute's estimator set as early as it
// can. No barrier follows them: the shared cache builds each cold artifact
// single-flight, so a worker that reaches a candidate whose set another
// worker is still training waits inside the cache for exactly that set
// while the rest of the pool keeps scoring.
//
// ctx cancellation is observed between candidates (and inside each
// candidate's engine evaluation); o.Progress, when set, receives one
// "candidates" update per scored candidate.
func scoreCandidates(ctx context.Context, db *relation.Database, model *causal.Model, qs []*hyperql.HowTo,
	attrs []string, cands map[string][]hyperql.UpdateSpec, srcs map[string]source, o Options) ([]scored, error) {
	type job struct {
		attr string
		spec hyperql.UpdateSpec
	}
	var jobs []job
	var first, rest []int
	for _, attr := range attrs {
		for ci, spec := range cands[attr] {
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
	sp.Set("candidates", len(jobs))
	sp.Set("attrs", len(attrs))
	// Cost-based scheduling: run attributes of low base-column cardinality
	// first — their frequency estimators are cheapest to train and their
	// candidates complete fastest, so the pool drains the cheap work while
	// the expensive estimators warm, query order breaking ties. This reorders
	// only the dispatch queue; out is indexed by the original job order, so
	// results (and the deterministic first-error choice) are unchanged.
	card := make(map[string]int, len(attrs))
	for _, attr := range attrs {
		card[attr] = srcs[attr].rel.Coded(srcs[attr].col).Card()
	}
	for _, idxs := range [][]int{first, rest} {
		sort.SliceStable(idxs, func(a, b int) bool {
			return card[jobs[idxs[a]].attr] < card[jobs[idxs[b]].attr]
		})
	}
	queue := append(first, rest...)
	// The shard fan-out knob governs candidate-level parallelism too: a
	// how-to is shard-parallel across candidates, each candidate a what-if
	// over the shared cache. Results are independent of the pool width (the
	// output slice is in deterministic candidate order and every candidate's
	// engine evaluation reduces over the canonical shard plan).
	pool := shard.Rows(len(queue), 1) // one candidate per slot
	workers := pool.Workers(o.Engine.Shards)
	if workers > 1 {
		// Candidate-level parallelism already saturates the cores; keep the
		// engine's nested tuple-evaluation fan-out from multiplying it.
		o.Engine = o.Engine.WithShards(1)
	}
	out := make([]scored, len(jobs))
	errs := make([]error, len(jobs))
	var scoredCount atomic.Int64
	poolErr := shard.Run(ctx, pool, workers, func(_, qi, _, _ int) error {
		ji := queue[qi]
		j := jobs[ji]
		vals := make([]float64, len(qs))
		for oi, q := range qs {
			if vals[oi], errs[ji] = evalCandidate(ctx, db, model, q, []hyperql.UpdateSpec{j.spec}, o); errs[ji] != nil {
				return errs[ji]
			}
		}
		out[ji] = scored{attr: j.attr, spec: j.spec, vals: vals}
		if o.Progress != nil {
			o.Progress("candidates", int(scoredCount.Add(1)), len(jobs))
		}
		return nil
	})
	// First error in job order, so failures are as deterministic as results;
	// poolErr alone means the context ended before any candidate failed.
	for _, err := range append(errs, poolErr) {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
