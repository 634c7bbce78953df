// Package howto implements HypeR's how-to queries (Section 4): reverse data
// management questions of the form "how should these attributes be updated
// to maximize this aggregate, subject to constraints". A how-to query is one
// 0/1 integer program over candidate hypothetical updates (Equations 7-9),
// and the package builds it in one pipeline:
//
//   - table (newTable): candidates are enumerated per attribute from the
//     LIMIT constraints (continuous domains are bucketized, Figure 9), each
//     candidate's marginal effect under every objective is a what-if
//     evaluation (Definition 7) scored across a worker pool, and the query
//     meter is charged for both;
//   - model ((*table).model, addBudget): a binary variable per candidate for
//     a caller-supplied objective row, SOS-1 per attribute, the optional
//     UPDATES <= k row;
//   - result ((*table).result): choices in attribute order, the objective as
//     base plus the chosen deltas.
//
// The formulations are what they add to it. Lexicographic (Example 11)
// solves one model per objective, pinning the higher-priority ones;
// Evaluate (Section 4.3) is Lexicographic of one objective that then reports
// zero-gain selections as "no change"; MinimizeCost (footnote 3) puts the
// negated update costs in the objective row and adds the target row. The
// exhaustive Opt-HowTo baseline of Section 5.1 (BruteForce, BruteForceWith)
// shares none of this and is the method's independent oracle.
package howto

import (
	"context"
	"fmt"
	"math"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// Options configures how-to evaluation.
type Options struct {
	// Engine configures the underlying what-if evaluations.
	Engine engine.Options
	// Buckets is the equi-width bucket count used to discretize continuous
	// update attributes (default 8; Figure 9 sweeps this).
	Buckets int
	// Progress, when non-nil, receives candidate-scoring progress (stage
	// "candidates" for the pooled scorers, "combos" for the brute-force
	// search). Must be safe for concurrent use.
	Progress engine.ProgressFunc
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Buckets <= 0 {
		out.Buckets = 8
	}
	if out.Engine.Estimator == engine.EstimatorAuto {
		// The IP objective is a linear function of the updates (Section
		// 4.3); estimate candidate effects with the linear regressor when
		// continuous attributes are involved.
		out.Engine.Estimator = engine.EstimatorLinear
	}
	if out.Engine.Cache == nil {
		// All candidate what-if queries of one how-to share USE/WHEN/FOR, so
		// views, blocks, and regressors are trained once (Section 4.3).
		out.Engine.Cache = engine.NewCache()
	}
	return out
}

// Choice is the decision for one HOWTOUPDATE attribute.
type Choice struct {
	Attr string
	// Update is the chosen hypothetical update, or nil for "no change".
	Update *hyperql.UpdateSpec
	// Delta is the estimated marginal effect of the update on the objective.
	Delta float64
}

// String renders the choice in the paper's output style ("Price: 1.1x",
// "Color: no change").
func (c Choice) String() string {
	if c.Update == nil {
		return c.Attr + ": no change"
	}
	switch c.Update.Form {
	case hyperql.UpdateScale:
		return fmt.Sprintf("%s: %gx", c.Attr, c.Update.Const.AsFloat())
	case hyperql.UpdateShift:
		return fmt.Sprintf("%s: %+g", c.Attr, c.Update.Const.AsFloat())
	default:
		return fmt.Sprintf("%s: = %s", c.Attr, c.Update.Const)
	}
}

// Result is the outcome of a how-to query.
type Result struct {
	Choices []Choice
	// Objective is the estimated post-update objective value.
	Objective float64
	// Base is the objective value with no update.
	Base float64
	// Candidates is the total number of candidate updates enumerated.
	Candidates int
	// WhatIfEvals counts the candidate what-if evaluations performed.
	WhatIfEvals int
	// IPNodes is the number of branch-and-bound nodes explored (0 for the
	// brute-force baseline).
	IPNodes int
	Total   time.Duration
}

// Updates returns the non-nil chosen updates.
func (r *Result) Updates() []hyperql.UpdateSpec {
	var out []hyperql.UpdateSpec
	for _, c := range r.Choices {
		if c.Update != nil {
			out = append(out, *c.Update)
		}
	}
	return out
}

// String renders the result.
func (r *Result) String() string {
	s := "{"
	for i, c := range r.Choices {
		if i > 0 {
			s += ", "
		}
		s += c.String()
	}
	return fmt.Sprintf("%s} objective=%.6g (base=%.6g)", s, r.Objective, r.Base)
}

// Evaluate answers a how-to query with the IP formulation of Section 4.3:
// the single-objective case of Lexicographic, keeping only the selected
// updates that improve the objective. ctx flows into every candidate
// what-if evaluation (observed inside the engine's tuple loop and estimator
// training), the scoring worker pool, and the IP branch and bound, so a
// cancelled or deadline-expired context stops the solve mid-flight with
// ctx.Err().
func Evaluate(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.HowTo, opts Options) (*Result, error) {
	t, err := newTable(ctx, db, model, []*hyperql.HowTo{q}, opts)
	if err != nil {
		return nil, err
	}
	selected, nodes, err := t.solveLexicographic(ctx)
	if err != nil {
		return nil, err
	}
	// The IP may pick a zero-delta variable when ties exist; report those
	// attributes as "no change".
	gains := t.gains(0)
	improving := selected[:0]
	for _, vi := range selected {
		if gains[vi] > 1e-12 {
			improving = append(improving, vi)
		}
	}
	return t.result(improving, nodes), nil
}

// BruteForce is the Opt-HowTo baseline: it enumerates every combination of
// candidate updates (including "no change" per attribute), evaluates the
// combined what-if query for each, and returns the best. Exponential in the
// number of attributes (Figure 11b / 12b). ctx is observed before every
// combination evaluation (and inside each underlying what-if), so the
// search aborts promptly when cancelled.
func BruteForce(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.HowTo, opts Options) (*Result, error) {
	o := opts.withDefaults()
	start := time.Now()
	cands, _, err := candidates(ctx, db, q, o, whenSets{})
	if err != nil {
		return nil, err
	}
	base, err := baseObjective(ctx, db, model, q, o)
	if err != nil {
		return nil, err
	}
	evalFn := func(updates []hyperql.UpdateSpec) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if len(updates) == 0 {
			return base, nil
		}
		return evalCandidate(ctx, db, model, q, updates, o)
	}
	res, err := bruteForceOver(q, cands, evalFn, o.Progress)
	if err != nil {
		return nil, err
	}
	obs.MeterFromContext(ctx).Charge(obs.MeterJSON{
		HowToCandidates: uint64(res.Candidates), WhatIfEvals: uint64(res.WhatIfEvals)})
	res.Base = base
	res.Total = time.Since(start)
	return res, nil
}

// BruteForceWith runs the exhaustive search with a caller-provided objective
// evaluator — the experiment harness passes the structural-equation ground
// truth here to compute the paper's OptHowTo reference values (Section 5.4).
func BruteForceWith(q *hyperql.HowTo, cands map[string][]hyperql.UpdateSpec,
	evalFn func(updates []hyperql.UpdateSpec) (float64, error)) (*Result, error) {
	start := time.Now()
	res, err := bruteForceOver(q, cands, evalFn, nil)
	if err != nil {
		return nil, err
	}
	base, err := evalFn(nil)
	if err != nil {
		return nil, err
	}
	res.Base = base
	res.Total = time.Since(start)
	return res, nil
}

func bruteForceOver(q *hyperql.HowTo, cands map[string][]hyperql.UpdateSpec,
	evalFn func(updates []hyperql.UpdateSpec) (float64, error),
	progress engine.ProgressFunc) (*Result, error) {
	res := &Result{}
	bk, hasBudget := budget(q)
	// Combination count for progress reporting: an upper bound when a budget
	// prunes the tree (capped so the product cannot overflow).
	totalCombos := 1
	for _, attr := range q.Attrs {
		if totalCombos < 1<<30 {
			totalCombos *= len(cands[attr]) + 1
		}
	}
	best := math.Inf(-1)
	var bestCombo []*hyperql.UpdateSpec
	combo := make([]*hyperql.UpdateSpec, len(q.Attrs))
	var rec func(i, used int) error
	rec = func(i, used int) error {
		if i == len(q.Attrs) {
			var updates []hyperql.UpdateSpec
			for _, u := range combo {
				if u != nil {
					updates = append(updates, *u)
				}
			}
			val, err := evalFn(updates)
			if err != nil {
				return err
			}
			res.WhatIfEvals++
			if progress != nil {
				progress("combos", res.WhatIfEvals, totalCombos)
			}
			score := val
			if !q.Maximize {
				score = -score
			}
			if score > best {
				best = score
				bestCombo = append([]*hyperql.UpdateSpec(nil), combo...)
			}
			return nil
		}
		combo[i] = nil
		if err := rec(i+1, used); err != nil {
			return err
		}
		if hasBudget && used >= bk {
			return nil
		}
		for ci := range cands[q.Attrs[i]] {
			combo[i] = &cands[q.Attrs[i]][ci]
			if err := rec(i+1, used+1); err != nil {
				return err
			}
		}
		combo[i] = nil
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, err
	}
	for ai, attr := range q.Attrs {
		res.Candidates += len(cands[attr])
		c := Choice{Attr: attr, Update: bestCombo[ai]}
		res.Choices = append(res.Choices, c)
	}
	if q.Maximize {
		res.Objective = best
	} else {
		res.Objective = -best
	}
	return res, nil
}

// whatIf is the candidate what-if query of Definition 7: q's USE, WHEN,
// objective and FOR under updates.
func whatIf(q *hyperql.HowTo, updates []hyperql.UpdateSpec) *hyperql.WhatIf {
	return &hyperql.WhatIf{Use: q.Use, When: q.When, Updates: updates, Output: q.Obj, For: q.For}
}

// evalCandidate evaluates the candidate what-if query of Definition 7.
func evalCandidate(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.HowTo,
	updates []hyperql.UpdateSpec, o Options) (float64, error) {
	// The per-candidate engine progress is intentionally not forwarded: a
	// how-to reports candidate-level progress, not the tuples of each
	// underlying what-if.
	eo := o.Engine
	eo.Progress = nil
	res, err := engine.EvaluateContext(ctx, db, model, whatIf(q, updates), eo)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// identity is the no-op update of attr (scale by 1), which the engine
// evaluates exactly since no tuple is affected.
func identity(attr string) hyperql.UpdateSpec {
	return hyperql.UpdateSpec{Attr: attr, Form: hyperql.UpdateScale, Const: relation.Int(1)}
}

// baseObjective evaluates the objective with the identity update of the
// first attribute.
func baseObjective(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.HowTo, o Options) (float64, error) {
	return evalCandidate(ctx, db, model, q, []hyperql.UpdateSpec{identity(q.Attrs[0])}, o)
}

// budget returns the UPDATES <= k constraint if present.
func budget(q *hyperql.HowTo) (int, bool) {
	for _, l := range q.Limits {
		if l.Kind == hyperql.LimitBudget {
			return l.K, true
		}
	}
	return 0, false
}
