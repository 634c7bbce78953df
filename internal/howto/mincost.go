package howto

import (
	"context"
	"fmt"
	"math"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/ip"
	"hyper/internal/relation"
)

// MinimizeCost solves the alternate how-to formulation of Section 4.3
// (footnote 3): instead of maximizing the aggregate subject to L1 limits,
// minimize the total normalized L1 update cost subject to the aggregate
// reaching at least target. The query's TOMAXIMIZE clause supplies the
// aggregate; its LIMIT ranges and IN lists still restrict the candidate
// updates. ctx flows into candidate scoring and the IP solve.
func MinimizeCost(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.HowTo, target float64, opts Options) (*Result, error) {
	if !q.Maximize {
		return nil, fmt.Errorf("howto: MinimizeCost requires a TOMAXIMIZE objective defining the target aggregate")
	}
	t, err := newTable(ctx, db, model, []*hyperql.HowTo{q}, opts)
	if err != nil {
		return nil, err
	}
	m, err := t.minCostModel(target)
	if err != nil {
		return nil, err
	}
	sol, err := m.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	if base := t.bases[0]; sol.X == nil && target-base > 1e-9 {
		// Upper bound on what any feasible selection can reach, for the
		// error message: best per-attribute delta.
		best := 0.0
		for _, attr := range q.Attrs {
			b := 0.0
			for _, vi := range t.byAttr[attr] {
				b = math.Max(b, t.deltas[0][vi])
			}
			best += b
		}
		return nil, fmt.Errorf("howto: no feasible update set reaches target %.6g (base %.6g, best achievable %.6g)",
			target, base, base+best)
	}
	return t.result(sol.Selected(), sol.Nodes), nil
}

// minCostModel is: minimize Σ cost_i·δ_i  s.t.  Σ Δ_i·δ_i >= target - base,
// then the budget — expressed as maximization of negated costs for the 0/1
// solver.
func (t *table) minCostModel(target float64) (*ip.Model, error) {
	q := t.qs[0]
	obj := make([]float64, len(t.vars))
	for _, attr := range q.Attrs {
		costs, err := updateCosts(q, t.srcs[attr], t.cands[attr], t.ws)
		if err != nil {
			return nil, err
		}
		for ci, vi := range t.byAttr[attr] {
			obj[vi] = -costs[ci]
		}
	}
	m, err := t.model(obj)
	if err != nil {
		return nil, err
	}
	if err := m.AddGE(t.all, t.deltas[0], target-t.bases[0]); err != nil {
		return nil, err
	}
	if err := t.addBudget(m); err != nil {
		return nil, err
	}
	return m, nil
}

// updateCosts computes the normalized L1 cost of each candidate: the mean
// absolute change it applies to the WHEN tuples (Section 4.1's cost model).
func updateCosts(q *hyperql.HowTo, src engine.BaseColumn, specs []hyperql.UpdateSpec, ws whenSets) ([]float64, error) {
	numeric := src.Rel.Schema().Col(src.Col).Kind.Numeric()
	inS, err := ws.mask(src.Rel, q.When)
	if err != nil {
		return nil, err
	}
	pres := gather(src, inS)
	costs := make([]float64, len(specs))
	for si, spec := range specs {
		if !numeric {
			// Categorical change has unit cost.
			costs[si] = 1
			continue
		}
		d := 0.0
		for _, p := range pres {
			d += math.Abs(spec.Apply(relation.Float(p)).AsFloat() - p)
		}
		if len(pres) > 0 {
			costs[si] = d / float64(len(pres))
		}
	}
	return costs, nil
}
