package howto

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/plan"
	"hyper/internal/relation"
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
// Scoring runs in two phases: the first candidate of each attribute is
// evaluated first (concurrently across attributes), which trains that
// attribute's estimator set exactly once, and only then are the remaining
// candidates fanned out — avoiding a thundering herd of workers all
// training the same cold estimator.
//
// ctx cancellation is observed between candidates (and inside each
// candidate's engine evaluation); o.Progress, when set, receives one
// "candidates" update per scored candidate.
func scoreCandidates(ctx context.Context, db *relation.Database, model *causal.Model, qs []*hyperql.HowTo,
	attrs []string, cands map[string][]hyperql.UpdateSpec, o Options) ([]scored, error) {
	type job struct {
		attr string
		spec hyperql.UpdateSpec
	}
	var jobs []job
	var warm, rest []int
	for _, attr := range attrs {
		for ci, spec := range cands[attr] {
			if ci == 0 {
				warm = append(warm, len(jobs))
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
	// Cost-based scheduling: run low-cardinality attributes first — their
	// frequency estimators are cheapest to train and their candidates
	// complete fastest, so the pool drains the cheap work while the expensive
	// estimators warm. This reorders only the dispatch queues; out is indexed
	// by the original job order, so results (and the deterministic
	// first-error choice) are unchanged.
	if rank := plan.AttrRank(db, qs[0].Use, attrs); rank != nil {
		byRank := func(idxs []int) {
			sort.SliceStable(idxs, func(a, b int) bool {
				return rank[jobs[idxs[a]].attr] < rank[jobs[idxs[b]].attr]
			})
		}
		byRank(warm)
		byRank(rest)
		sp.Set("cost_ordered", true)
	}
	// The shard fan-out knob governs candidate-level parallelism too: a
	// how-to is shard-parallel across candidates, each candidate a what-if
	// over the shared cache. Results are independent of the pool width (the
	// output slice is in deterministic candidate order and every candidate's
	// engine evaluation reduces over the canonical shard plan).
	workers := o.Engine.Shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers > 1 {
		// Candidate-level parallelism already saturates the cores; keep the
		// engine's nested tuple-evaluation fan-out from multiplying it.
		o.Engine = o.Engine.WithShards(1)
	}
	out := make([]scored, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	var scoredCount atomic.Int64
	run := func(ji int) {
		if failed.Load() {
			return
		}
		if err := ctx.Err(); err != nil {
			errs[ji] = err
			failed.Store(true)
			return
		}
		j := jobs[ji]
		vals := make([]float64, len(qs))
		for oi, q := range qs {
			v, err := evalCandidate(ctx, db, model, q, []hyperql.UpdateSpec{j.spec}, o)
			if err != nil {
				errs[ji] = err
				failed.Store(true)
				return
			}
			vals[oi] = v
		}
		out[ji] = scored{attr: j.attr, spec: j.spec, vals: vals}
		if o.Progress != nil {
			o.Progress("candidates", int(scoredCount.Add(1)), len(jobs))
		}
	}
	runPhase := func(idxs []int) {
		if len(idxs) == 0 {
			return
		}
		w := workers
		if w > len(idxs) {
			w = len(idxs)
		}
		if w <= 1 {
			for _, ji := range idxs {
				run(ji)
			}
			return
		}
		feed := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ji := range feed {
					run(ji)
				}
			}()
		}
		for _, ji := range idxs {
			feed <- ji
		}
		close(feed)
		wg.Wait()
	}
	runPhase(warm)
	runPhase(rest)
	// First error in job order, so failures are as deterministic as results.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
