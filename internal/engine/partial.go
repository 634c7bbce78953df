package engine

import (
	"context"
	"encoding/binary"
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
// evaluation decomposes over the canonical shard plan into partials (rows or
// block windows, see ShardPartial) that are pure functions of (data, query,
// semantic options, shard id) — independent of which process computes them.
// A coordinator can therefore hand disjoint shard subsets to remote workers,
// collect their PartialResults, and MergePartials them in plan order to
// reconstruct the exact Result a single process would produce.

// ShardPartial is the partial of one plan shard, in the regime of its
// PartialMeta. Where blocks span rows, it is a block window: the per-block
// (sum, count) accumulators over the window of block ids the shard's rows
// touch, from MinBlock; an empty shard has nil Sum/Cnt. Where every view row
// is a block of its own (RowsOwnBlocks), it is the shard's rows in row order:
// with Width 0, Sum/Cnt hold each row's (sum, count); with Width 1 or 2,
// they hold the (sum, count) of each tuple class the rows reference, once,
// and Codes holds each row's index into them, Width bytes little-endian.
// Codes is the shard's layout's, shared by every partial of one cached
// Prepared: read it, never write it. (internal/dist ships the floats as raw
// bits, since JSON cannot carry a NaN or ±Inf accumulator, and the codes as
// they are.)
type ShardPartial struct {
	Shard    int
	MinBlock int
	Sum      []float64
	Cnt      []float64
	Codes    []byte
	Width    int
}

// rows is the number of view rows a partial of the own-block regime holds.
func (w ShardPartial) rows() int {
	if w.Width == 0 {
		return len(w.Sum)
	}
	return len(w.Codes) / w.Width
}

// addRows adds the rows of a partial of the own-block regime into res's
// totals in row order: the addends and the order of evaluator.addRows, so a
// merge keeps a local evaluation's bits.
func (w ShardPartial) addRows(res *Result) {
	sum, cnt := res.Sum, res.Count
	switch w.Width {
	case 0:
		for j, v := range w.Sum {
			sum += v
			cnt += w.Cnt[j]
		}
	case 1:
		for _, c := range w.Codes {
			sum += w.Sum[c]
			cnt += w.Cnt[c]
		}
	case 2:
		for j := 0; j < len(w.Codes); j += 2 {
			c := binary.LittleEndian.Uint16(w.Codes[j:])
			sum += w.Sum[c]
			cnt += w.Cnt[c]
		}
	}
	res.Sum, res.Count = sum, cnt
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
	RowsOwnBlocks bool     `json:"rows_own_blocks,omitempty"`
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
		m.Disjuncts == o.Disjuncts && m.ViewRows == o.ViewRows && m.RowsOwnBlocks == o.RowsOwnBlocks &&
		m.UpdatedRows == o.UpdatedRows && m.SampledRows == o.SampledRows &&
		slices.Equal(m.Backdoor, o.Backdoor)
}

// Check reports how w fails to be a partial of m's regime: sums and counts
// of different lengths; where blocks span rows, codes, or a block window
// outside [0, Blocks); where every row is a block of its own, a code width
// other than 0, 1 or 2, codes that are not whole, or a code at or past the
// class count. MergePartials checks every partial with it, and a decoder can
// check one as it arrives, before anything indexes its codes.
func (m PartialMeta) Check(w ShardPartial) error {
	if len(w.Sum) != len(w.Cnt) {
		return fmt.Errorf("engine: shard %d has %d sums but %d counts", w.Shard, len(w.Sum), len(w.Cnt))
	}
	if !m.RowsOwnBlocks {
		if w.Width != 0 || w.Codes != nil {
			return fmt.Errorf("engine: shard %d is class-coded, but its blocks span rows", w.Shard)
		}
		if w.MinBlock < 0 || w.MinBlock+len(w.Sum) > m.Blocks {
			return fmt.Errorf("engine: shard %d block window [%d,%d) outside [0,%d)",
				w.Shard, w.MinBlock, w.MinBlock+len(w.Sum), m.Blocks)
		}
		return nil
	}
	top := 0 // the largest code
	switch w.Width {
	case 0:
		if w.Codes != nil {
			return fmt.Errorf("engine: shard %d has codes but no code width", w.Shard)
		}
	case 1:
		if len(w.Codes) > 0 {
			top = int(slices.Max(w.Codes))
		}
	case 2:
		if len(w.Codes)%2 != 0 {
			return fmt.Errorf("engine: shard %d has %d bytes of 2-byte codes", w.Shard, len(w.Codes))
		}
		for j := 0; j < len(w.Codes); j += 2 {
			top = max(top, int(binary.LittleEndian.Uint16(w.Codes[j:])))
		}
	default:
		return fmt.Errorf("engine: shard %d has %d-byte codes (want 1 or 2)", w.Shard, w.Width)
	}
	if len(w.Codes) > 0 && top >= len(w.Sum) {
		return fmt.Errorf("engine: shard %d has code %d, past its %d classes", w.Shard, top, len(w.Sum))
	}
	return nil
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

func (e *evaluator) meta() PartialMeta {
	return PartialMeta{
		Plan:          e.plan.Shards(),
		Blocks:        e.nBlocks,
		Agg:           aggName(e.agg),
		Mode:          e.res.Mode,
		Backdoor:      e.res.Backdoor,
		EstimatorUsed: e.res.EstimatorUsed,
		ShardedFit:    e.res.ShardedFit,
		Disjuncts:     e.res.Disjuncts,
		ViewRows:      e.res.ViewRows,
		RowsOwnBlocks: e.rowsOwnBlocks(),
		UpdatedRows:   e.res.UpdatedRows,
		SampledRows:   e.res.SampledRows,
		TrainedModels: e.est.trainedModels(),
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
// The Prepared comes from opts.Cache (Prepare): a dist worker, which passes
// its frame's cache, prepares each query shape once per frame and then only
// binds the update and runs its shards. opts.Shards, opts.Progress and ctx's
// trace and meter are this call's even on a cache hit.
func EvaluatePartialContext(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options, shards []int) (*PartialResult, error) {
	if opts.DryRun {
		return nil, fmt.Errorf("engine: partial evaluation has no dry-run form")
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: no shards requested")
	}
	start := time.Now()
	p, err := Prepare(ctx, db, model, q, opts)
	if err != nil {
		return nil, err
	}
	e, err := p.bind(ctx, q.Updates, start, opts)
	if err != nil {
		return nil, err
	}
	parts, err := e.partials(ctx, shards)
	if err != nil {
		return nil, err
	}
	return &PartialResult{Meta: e.meta(), Partials: parts}, nil
}

// MergePartials reduces a complete set of shard partials (every shard of the
// plan exactly once, in any arrival order) into the final Result, folding
// them strictly in plan order as a local evaluation folds them: rows that
// are their own blocks add straight into the totals (addRows), and block
// windows fold as foldWindows does, so every bit of the result matches a
// single-process evaluation.
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
	rows := 0
	for _, p := range parts {
		if p.Shard < 0 || p.Shard >= meta.Plan {
			return nil, fmt.Errorf("engine: merge: shard %d out of plan range [0,%d)", p.Shard, meta.Plan)
		}
		if seen[p.Shard] {
			return nil, fmt.Errorf("engine: merge: shard %d delivered twice", p.Shard)
		}
		if err := meta.Check(p); err != nil {
			return nil, fmt.Errorf("engine: merge: %w", err)
		}
		seen[p.Shard] = true
		ordered[p.Shard] = p
		rows += p.rows()
	}
	if meta.RowsOwnBlocks && rows != meta.ViewRows {
		return nil, fmt.Errorf("engine: merge: partials hold %d rows, the view %d", rows, meta.ViewRows)
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
	if meta.RowsOwnBlocks {
		for _, w := range ordered {
			w.addRows(res)
		}
	} else {
		foldWindows(res, ordered, meta.Blocks)
	}
	res.setValue(agg)
	return res, nil
}
