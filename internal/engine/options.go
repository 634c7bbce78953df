// Package engine implements HypeR's core contribution: evaluation of
// probabilistic what-if queries (Sections 3.2-3.3 and Appendix A of the
// paper). Given a database, a probabilistic relational causal model, and a
// parsed what-if query, it constructs the relevant view, decomposes the
// database into independent blocks, normalizes the FOR predicate into
// disjoint Pre/Post disjuncts, estimates the post-update conditional
// distributions by backdoor adjustment with a trained regressor, and
// combines per-block results with the decomposable aggregate.
package engine

import (
	"hyper/internal/plan"
	"hyper/internal/shard"
)

// Mode selects how the engine conditions its estimates.
type Mode int

// Engine modes, matching the variants evaluated in Section 5.
const (
	// ModeFull is HypeR with background knowledge: the backdoor set is
	// derived from the causal graph.
	ModeFull Mode = iota
	// ModeNB is HypeR-NB ("no background"): the causal graph is ignored and
	// all attributes are used as the conditioning set, guaranteeing the true
	// backdoor set is included (canonical model, Section 2.2).
	ModeNB
	// ModeIndep is the provenance-style baseline: it ignores causal
	// dependencies entirely and conditions on nothing, so it answers from
	// raw correlation (Section 5.1).
	ModeIndep
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "HypeR"
	case ModeNB:
		return "HypeR-NB"
	case ModeIndep:
		return "Indep"
	default:
		return "mode(?)"
	}
}

// EstimatorKind selects the conditional-probability estimator.
type EstimatorKind int

// Estimator choices.
const (
	// EstimatorAuto uses the exact frequency estimator when every feature is
	// discrete and its support is small, otherwise a random forest. This
	// mirrors the paper's index optimization (A.4).
	EstimatorAuto EstimatorKind = iota
	// EstimatorFreq forces the exact conditional-frequency estimator.
	EstimatorFreq
	// EstimatorForest forces the random-forest regressor.
	EstimatorForest
	// EstimatorLinear uses a ridge linear regressor when any feature is
	// continuous (falling back to the exact frequency estimator when all
	// features are discrete). The how-to engine defaults to it: Section 4.3
	// expresses the IP objective through a linear regression function φ.
	EstimatorLinear
)

// ProgressFunc receives coarse progress updates during evaluation: stage is
// a short label ("tuples" for the rows the engine has valued, "shards" for the
// plan shards the engine or the dist coordinator has finished, "candidates"
// for how-to scoring, "combos" for the brute-force search, "queries" for a
// server batch), done/total count units of that stage (total <= 0 means
// unknown). Implementations must be
// safe for concurrent use — the engine reports from parallel workers — and
// cheap, since they sit near hot loops.
type ProgressFunc func(stage string, done, total int)

// Options configures a what-if evaluation. Its JSON form is what a dist
// worker's evaluation reads: every field but DryRun (a distributed evaluation
// never stops at planning) and the process-local Cache, Plans and Progress.
type Options struct {
	Mode Mode `json:"mode,omitempty"`
	// SampleSize > 0 trains estimators on a random sample of at most this
	// many view rows (the HypeR-sampled variant, Section 5.2). 0 uses all.
	SampleSize int `json:"sample_size,omitempty"`
	// Seed drives sampling and forest training for reproducibility.
	Seed int64 `json:"seed,omitempty"`
	// Estimator selects the conditional estimator.
	Estimator EstimatorKind `json:"estimator,omitempty"`
	// DisableBlocks turns off block-independent decomposition (used by the
	// ablation benchmarks; results must not change).
	DisableBlocks bool `json:"disable_blocks,omitempty"`
	// Shards caps the worker fan-out of the shard-parallel stages: the
	// per-tuple evaluation loop, per-shard estimator fitting, and the
	// how-to candidate-scoring pool (0 = GOMAXPROCS, 1 = serial). It is
	// purely an execution knob: work is partitioned by the canonical shard
	// plan (see ShardRows) and partial results reduce in plan order, so
	// every value of Shards produces bit-identical results.
	Shards int `json:"shards,omitempty"`
	// ShardRows is the target rows per shard of the canonical plan
	// (default 4096). Unlike Shards it is part of evaluation semantics:
	// the plan fixes the reduction tree of every floating-point merge, so
	// changing the granularity can shift results by an ulp — which is why
	// ShardRows participates in estimator cache identity and Shards does
	// not.
	ShardRows int `json:"shard_rows,omitempty"`
	// DryRun stops after planning (view, blocks, backdoor set, FOR
	// normalization, estimator selection) without evaluating any tuple;
	// Result.Value is zero and the diagnostics describe the plan. Used by
	// Explain.
	DryRun bool `json:"-"`
	// Cache, when non-nil, memoizes views, block decompositions and trained
	// estimators across queries that share USE/WHEN/FOR clauses (the how-to
	// engine passes one cache across all candidate what-if queries). The
	// cache must only be shared across queries on the same database and
	// causal model.
	Cache *Cache `json:"-"`
	// Plans, when non-nil, keeps compiled query plans — WHEN pushdown
	// programs in cost-based conjunct order — keyed by shape fingerprint +
	// schema signature, so structurally identical queries skip planning. It
	// selects no code path: the planner's program computes the update set
	// either way, and nil only means every query compiles its own plan.
	// Excluded from estimator cache identity. Like Cache it must only be
	// shared across queries on the same database.
	Plans *plan.Cache `json:"-"`
	// Progress, when non-nil, receives evaluation progress updates (stage
	// "tuples", and "shards" as plan shards finish). It does not participate
	// in cache identity: progress reporting never changes a result.
	Progress ProgressFunc `json:"-"`
}

// WithShards returns a copy of o with the execution fan-out set; results
// are unaffected (see Shards). The how-to scoring pool passes 1 so its
// candidate-level parallelism is not multiplied by tuple-level workers.
func (o Options) WithShards(n int) Options {
	o.Shards = n
	return o
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.ShardRows <= 0 {
		// Normalized here (not just inside shard.Rows) so ShardRows=0 and an
		// explicit default produce the same estimator cache identity.
		out.ShardRows = shard.DefaultTargetRows
	}
	return out
}
