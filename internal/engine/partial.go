package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/relation"
	"hyper/internal/shard"
)

// Partial evaluation: the engine's distributed-execution surface. A what-if
// evaluation decomposes over the canonical shard plan into block-window
// partials that are pure functions of (data, query, semantic options, shard
// id) — independent of which process computes them. A coordinator can
// therefore hand disjoint shard subsets to remote workers, collect their
// PartialResults, and MergePartials them in plan order to reconstruct the
// exact Result a single process would produce.

// ShardPartial is the block-window partial of one plan shard: the per-block
// (sum, count) accumulators over the window of block ids the shard's rows
// touch. An empty shard has nil Sum/Cnt. (internal/dist ships it as raw
// float64 bits: JSON cannot carry a NaN or ±Inf accumulator.)
type ShardPartial struct {
	Shard    int
	MinBlock int
	Sum      []float64
	Cnt      []float64
}

// PartialMeta is the evaluation metadata a partial evaluation derives
// alongside its partials. Every field except TrainedModels is a
// deterministic function of (data, query, semantic options); a coordinator
// verifies that all workers agree on those fields before merging, turning
// any nondeterminism into a loud error instead of a silently wrong merge.
// TrainedModels is execution-dependent (a worker trains only the models its
// shards' tuples demand) and is excluded from the consistency check.
type PartialMeta struct {
	Plan          int      `json:"plan"`
	Blocks        int      `json:"blocks"`
	Agg           string   `json:"agg"` // "count" | "sum" | "avg"
	Mode          Mode     `json:"mode"`
	Backdoor      []string `json:"backdoor,omitempty"`
	EstimatorUsed string   `json:"estimator"`
	ShardedFit    bool     `json:"sharded_fit,omitempty"`
	Disjuncts     int      `json:"disjuncts"`
	ViewRows      int      `json:"view_rows"`
	UpdatedRows   int      `json:"updated_rows"`
	SampledRows   int      `json:"sampled_rows"`
	TrainedModels int      `json:"trained_models"`
}

// PartialResult is what a (possibly remote) partial evaluation returns: the
// shared metadata plus one partial per evaluated shard.
type PartialResult struct {
	Meta     PartialMeta
	Partials []ShardPartial
}

// Consistent reports whether two metas agree on every deterministic field —
// the cross-worker determinism check. TrainedModels is execution-dependent
// and ignored.
func (m PartialMeta) Consistent(o PartialMeta) bool {
	return m.Plan == o.Plan && m.Blocks == o.Blocks && m.Agg == o.Agg && m.Mode == o.Mode &&
		m.EstimatorUsed == o.EstimatorUsed && m.ShardedFit == o.ShardedFit &&
		m.Disjuncts == o.Disjuncts && m.ViewRows == o.ViewRows &&
		m.UpdatedRows == o.UpdatedRows && m.SampledRows == o.SampledRows &&
		slices.Equal(m.Backdoor, o.Backdoor)
}

// aggName is an aggregate's wire name ("count", "sum" or "avg") and
// aggFromName its inverse.
func aggName(a hyperql.AggFunc) string { return strings.ToLower(string(a)) }

func aggFromName(s string) (hyperql.AggFunc, error) {
	if a := hyperql.AggFunc(strings.ToUpper(s)); a.Valid() && s == aggName(a) {
		return a, nil
	}
	return "", fmt.Errorf("engine: unknown aggregate %q (want count|sum|avg)", s)
}

func (p *evalPrep) meta() PartialMeta {
	return PartialMeta{
		Plan:          p.plan.Shards(),
		Blocks:        p.nBlocks,
		Agg:           aggName(p.agg),
		Mode:          p.res.Mode,
		Backdoor:      p.res.Backdoor,
		EstimatorUsed: p.res.EstimatorUsed,
		ShardedFit:    p.res.ShardedFit,
		Disjuncts:     p.res.Disjuncts,
		ViewRows:      p.res.ViewRows,
		UpdatedRows:   p.res.UpdatedRows,
		SampledRows:   p.res.SampledRows,
		TrainedModels: p.ev.est.trainedModels(),
	}
}

// PlanContext resolves the what-if q (the view stage and its names, as
// prepare's step 1) and returns its canonical shard plan without evaluating
// it: the plan follows from the view's row count and the ShardRows
// granularity. A coordinator calls this to know how many shards it is
// assigning before any worker does real work.
func PlanContext(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) (planShards, viewRows int, err error) {
	o := opts.withDefaults()
	b, err := resolve(ctx, db, q, o.Cache)
	if err != nil {
		return 0, 0, err
	}
	return shard.Rows(b.v.Rel.Len(), o.ShardRows).Shards(), b.v.Rel.Len(), nil
}

// EvaluatePartialContext runs the full evaluation pipeline but evaluates
// tuples only for the listed shards of the canonical plan, returning their
// serializable partials plus the evaluation metadata. shards must be
// distinct and within the plan. The partials (and every Meta field except
// TrainedModels) are bit-identical to what any other process evaluating the
// same (data, query, semantic options) would produce for the same shards.
//
// The Prepared comes from opts.Cache (cachedPrepare): a dist worker, which
// passes its frame's cache, prepares each query shape once per frame and
// then only binds the update and runs its shards. opts.Shards, opts.Progress
// and ctx's trace and meter are this call's even on a cache hit.
func EvaluatePartialContext(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options, shards []int) (*PartialResult, error) {
	if opts.DryRun {
		return nil, fmt.Errorf("engine: partial evaluation has no dry-run form")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: no shards requested")
	}
	start := time.Now()
	prep, err := cachedPrepare(ctx, db, model, q, opts)
	if err != nil {
		return nil, err
	}
	p, err := prep.bind(ctx, q.Updates, start, opts)
	if err != nil {
		return nil, err
	}
	parts, err := p.partials(ctx, shards)
	if err != nil {
		return nil, err
	}
	return &PartialResult{Meta: p.meta(), Partials: parts}, nil
}

// MergePartials reduces a complete set of shard partials (every shard of the
// plan exactly once, in any arrival order) into the final Result, folding
// them strictly in plan order as a local evaluation folds its windows
// (foldWindows), so every bit of the result matches a single-process
// evaluation.
func MergePartials(meta PartialMeta, parts []ShardPartial) (*Result, error) {
	agg, err := aggFromName(meta.Agg)
	if err != nil {
		return nil, err
	}
	if meta.Plan <= 0 {
		return nil, fmt.Errorf("engine: merge: plan has %d shards", meta.Plan)
	}
	if meta.Blocks <= 0 {
		return nil, fmt.Errorf("engine: merge: meta has %d blocks", meta.Blocks)
	}
	if len(parts) != meta.Plan {
		return nil, fmt.Errorf("engine: merge: have %d partials, plan has %d shards", len(parts), meta.Plan)
	}
	ordered := make([]ShardPartial, meta.Plan)
	seen := make([]bool, meta.Plan)
	for _, p := range parts {
		if p.Shard < 0 || p.Shard >= meta.Plan {
			return nil, fmt.Errorf("engine: merge: shard %d out of plan range [0,%d)", p.Shard, meta.Plan)
		}
		if seen[p.Shard] {
			return nil, fmt.Errorf("engine: merge: shard %d delivered twice", p.Shard)
		}
		if len(p.Sum) != len(p.Cnt) {
			return nil, fmt.Errorf("engine: merge: shard %d has %d sums but %d counts", p.Shard, len(p.Sum), len(p.Cnt))
		}
		if p.MinBlock < 0 || p.MinBlock+len(p.Sum) > meta.Blocks {
			return nil, fmt.Errorf("engine: merge: shard %d block window [%d,%d) outside [0,%d)",
				p.Shard, p.MinBlock, p.MinBlock+len(p.Sum), meta.Blocks)
		}
		seen[p.Shard] = true
		ordered[p.Shard] = p
	}
	res := &Result{
		Mode:          meta.Mode,
		Backdoor:      meta.Backdoor,
		Blocks:        meta.Blocks,
		Disjuncts:     meta.Disjuncts,
		EstimatorUsed: meta.EstimatorUsed,
		TrainedModels: meta.TrainedModels,
		SampledRows:   meta.SampledRows,
		ViewRows:      meta.ViewRows,
		UpdatedRows:   meta.UpdatedRows,
		ShardPlan:     meta.Plan,
		ShardedFit:    meta.ShardedFit,
	}
	foldWindows(res, ordered, meta.Blocks)
	res.setValue(agg)
	return res, nil
}
