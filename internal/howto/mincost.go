package howto

import (
	"context"
	"fmt"
	"math"
	"time"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/ip"
	"hyper/internal/relation"
)

// MinimizeCost solves the alternate how-to formulation of Section 4.3
// (footnote 3): instead of maximizing the aggregate subject to L1 limits,
// minimize the total normalized L1 update cost subject to the aggregate
// reaching at least target. The query's TOMAXIMIZE clause supplies the
// aggregate; its LIMIT ranges and IN lists still restrict the candidate
// updates.
//
// The IP is: minimize Σ cost_i·δ_i  s.t.  Σ Δ_i·δ_i >= target - base,
// SOS-1 per attribute, optional UPDATES budget — expressed as maximization
// of negated costs for the 0/1 solver.
func MinimizeCost(db *relation.Database, model *causal.Model, q *hyperql.HowTo, target float64, opts Options) (*Result, error) {
	return MinimizeCostContext(context.Background(), db, model, q, target, opts)
}

// MinimizeCostContext is MinimizeCost with cancellation: ctx flows into
// candidate scoring and the IP solve, so the optimization aborts mid-flight
// when cancelled or past its deadline.
func MinimizeCostContext(ctx context.Context, db *relation.Database, model *causal.Model, q *hyperql.HowTo, target float64, opts Options) (*Result, error) {
	o := opts.withDefaults()
	start := time.Now()
	if !q.Maximize {
		return nil, fmt.Errorf("howto: MinimizeCost requires a TOMAXIMIZE objective defining the target aggregate")
	}
	ws := whenSets{}
	cands, err := candidates(db, q, o, ws)
	if err != nil {
		return nil, err
	}
	base, err := baseObjective(ctx, db, model, q, o)
	if err != nil {
		return nil, err
	}
	res := &Result{Base: base}
	need := target - base

	type cvar struct {
		attr  string
		spec  hyperql.UpdateSpec
		delta float64
		cost  float64
	}
	costsByAttr := map[string][]float64{}
	for _, attr := range q.Attrs {
		costs, err := updateCosts(db, q, attr, cands[attr], ws)
		if err != nil {
			return nil, err
		}
		costsByAttr[attr] = costs
	}
	scoredVars, err := scoreCandidates(ctx, db, model, []*hyperql.HowTo{q}, q.Attrs, cands, o)
	if err != nil {
		return nil, err
	}
	var vars []cvar
	byAttr := map[string][]int{}
	nextOfAttr := map[string]int{}
	for _, s := range scoredVars {
		ci := nextOfAttr[s.attr]
		nextOfAttr[s.attr] = ci + 1
		res.WhatIfEvals++
		vars = append(vars, cvar{attr: s.attr, spec: s.spec, delta: s.vals[0] - base, cost: costsByAttr[s.attr][ci]})
		byAttr[s.attr] = append(byAttr[s.attr], len(vars)-1)
	}
	res.Candidates = len(vars)

	m := ip.NewModel()
	for i, v := range vars {
		m.AddVar(fmt.Sprintf("%s=%d", v.attr, i), -v.cost)
	}
	for _, attr := range q.Attrs {
		if len(byAttr[attr]) > 0 {
			if err := m.AddAtMostOne(byAttr[attr]); err != nil {
				return nil, err
			}
		}
	}
	idx := make([]int, len(vars))
	deltas := make([]float64, len(vars))
	for i, v := range vars {
		idx[i] = i
		deltas[i] = v.delta
	}
	if err := m.AddGE(idx, deltas, need); err != nil {
		return nil, err
	}
	if k, ok := budget(q); ok {
		ones := make([]float64, len(vars))
		for i := range ones {
			ones[i] = 1
		}
		if err := m.AddLE(idx, ones, float64(k)); err != nil {
			return nil, err
		}
	}
	sol, err := m.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	res.IPNodes = sol.Nodes
	if sol.X == nil && need > 1e-9 {
		// Upper bound on what any feasible selection can reach, for the
		// error message: best per-attribute delta.
		best := 0.0
		for _, attr := range q.Attrs {
			b := 0.0
			for _, vi := range byAttr[attr] {
				if vars[vi].delta > b {
					b = vars[vi].delta
				}
			}
			best += b
		}
		return nil, fmt.Errorf("howto: no feasible update set reaches target %.6g (base %.6g, best achievable %.6g)",
			target, base, base+best)
	}

	chosen := map[string]*cvar{}
	for _, vi := range sol.Selected() {
		v := vars[vi]
		chosen[v.attr] = &v
	}
	res.Objective = base
	for _, attr := range q.Attrs {
		c := Choice{Attr: attr}
		if v := chosen[attr]; v != nil {
			c.Update = &v.spec
			c.Delta = v.delta
			res.Objective += v.delta
		}
		res.Choices = append(res.Choices, c)
	}
	res.Total = time.Since(start)
	return res, nil
}

// updateCosts computes the normalized L1 cost of each candidate: the mean
// absolute change it applies to the WHEN tuples (Section 4.1's cost model).
func updateCosts(db *relation.Database, q *hyperql.HowTo, attr string, specs []hyperql.UpdateSpec, ws whenSets) ([]float64, error) {
	rel, err := db.FindRelationOf(attr)
	if err != nil {
		return nil, err
	}
	numeric := rel.Schema().Col(rel.Schema().MustIndex(attr)).Kind.Numeric()
	pres, err := ws.values(rel, attr, q.When)
	if err != nil {
		return nil, err
	}
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
