package engine

import (
	"fmt"
	"strings"
	"time"
)

// Result is the outcome of evaluating a what-if query: the expected value of
// the OUTPUT aggregate over the post-update possible-world distribution
// (Definition 5), plus diagnostics.
type Result struct {
	// Value is valwhatif(Q, D).
	Value float64
	// Count is the expected number of tuples satisfying the FOR condition
	// post-update (the denominator of AVG; equals Value for COUNT).
	Count float64
	// Sum is the expected SUM component (the numerator of AVG).
	Sum float64

	// Mode that produced the result.
	Mode Mode
	// Backdoor is the conditioning set used (view column names).
	Backdoor []string
	// Blocks is the number of independent blocks the evaluation decomposed
	// into (1 when decomposition is disabled or no model is given).
	Blocks int
	// Disjuncts is the number of disjoint FOR disjuncts after normalization.
	Disjuncts int
	// EstimatorUsed names the conditional estimator ("freq" or "forest").
	EstimatorUsed string
	// TrainedModels is the number of regressors fitted.
	TrainedModels int
	// SampledRows is the training-set size actually used.
	SampledRows int
	// ViewRows is the size of the relevant view.
	ViewRows int
	// UpdatedRows is |S|, the number of tuples the update applies to.
	UpdatedRows int
	// ShardPlan is the number of contiguous row shards of the canonical
	// evaluation plan (1 means the view fit in a single shard).
	ShardPlan int
	// ShardWorkers is the worker fan-out that executed the plan. It affects
	// wall time only: results are identical for every worker count.
	ShardWorkers int
	// ShardedFit reports whether the estimator was fitted per shard and
	// merged (true only for shard-mergeable kinds, currently "freq", over a
	// multi-shard plan; forests and linear models always fit whole-frame).
	ShardedFit bool
	// Placement names the execution placement that produced the result:
	// "" or "local" for a single-process evaluation, "workers" when plan
	// shards were evaluated on remote workers and merged in plan order.
	// Like ShardWorkers it can never change a result.
	Placement string
	// RemoteWorkers is the number of distinct remote workers that
	// contributed shards (0 for a purely local run).
	RemoteWorkers int
	// Degraded reports that a distributed execution fell below the full
	// healthy worker fleet: a worker failed mid-query, quarantined workers
	// were skipped, or shards fell back to coordinator-local evaluation.
	// The value is unaffected — degradation moves work, never results.
	Degraded bool
	// DegradedReason is the comma-joined ladder of degradation codes
	// ("worker_lost", "quarantine", "local_fallback"); empty when Degraded
	// is false.
	DegradedReason string

	// PlanFingerprint is the 16-hex shape fingerprint of the compiled plan.
	// Like Placement it is pure diagnostics.
	PlanFingerprint string
	// PlanCacheHit reports whether the compiled plan was served from the
	// plan cache (planning was skipped entirely); always false without one.
	PlanCacheHit bool
	// PlanPushed is the number of WHEN conjuncts executed as columnar scans
	// over interned codes (0 when the plan fell back to the whole-tree
	// residual program). It does not depend on whether a plan cache is set.
	PlanPushed int
	// PlanText is the deterministic, literal-free EXPLAIN rendering of the
	// compiled plan.
	PlanText string

	// Timing breakdown.
	ViewTime  time.Duration
	BlockTime time.Duration
	PlanTime  time.Duration
	TrainTime time.Duration
	EvalTime  time.Duration
	Total     time.Duration
}

// String summarizes the result.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "value=%.6g (sum=%.6g count=%.6g) mode=%s", r.Value, r.Sum, r.Count, r.Mode)
	if len(r.Backdoor) > 0 {
		fmt.Fprintf(&b, " backdoor={%s}", strings.Join(r.Backdoor, ","))
	}
	fmt.Fprintf(&b, " blocks=%d est=%s trained=%d rows=%d/%d total=%s",
		r.Blocks, r.EstimatorUsed, r.TrainedModels, r.SampledRows, r.ViewRows, r.Total)
	return b.String()
}
