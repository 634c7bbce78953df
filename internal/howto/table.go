package howto

import (
	"context"
	"fmt"
	"time"

	"hyper/internal/causal"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/ip"
	"hyper/internal/obs"
	"hyper/internal/relation"
)

// table is the scored candidate table every IP formulation starts from: the
// permissible updates of qs[0]'s HOWTOUPDATE attributes (the queries of a
// multi-objective how-to share USE/WHEN/HOWTOUPDATE/LIMIT), each evaluated
// once under every objective as a candidate what-if (Definition 7).
type table struct {
	qs    []*hyperql.HowTo
	start time.Time
	// cands are the enumerated updates per attribute, srcs the base column
	// each attribute updates and ws the WHEN-set memo enumeration filled; the
	// min-cost formulation prices the same updates over the same sets.
	cands map[string][]hyperql.UpdateSpec
	srcs  map[string]engine.BaseColumn
	ws    whenSets
	// vars are the candidates scored, in (attribute, candidate) order — the
	// order of the IP's variables; byAttr groups their indexes per attribute
	// and all lists every index, the support of the dense rows.
	vars   []scored
	byAttr map[string][]int
	all    []int
	// bases[oi] is objective oi with no update; deltas[oi][vi] the marginal
	// effect of candidate vi on it.
	bases  []float64
	deltas [][]float64
}

// newTable enumerates and scores the candidates of one how-to (ctx flows
// into every candidate what-if and the scoring pool) and charges the query
// meter for them, so every formulation is metered alike.
func newTable(ctx context.Context, db *relation.Database, model *causal.Model, qs []*hyperql.HowTo, opts Options) (*table, error) {
	o := opts.withDefaults()
	t := &table{qs: qs, start: time.Now(), ws: whenSets{}, byAttr: map[string][]int{}}
	var err error
	if t.cands, t.srcs, err = candidates(ctx, db, qs[0], o, t.ws); err != nil {
		return nil, err
	}
	if err := t.score(ctx, db, model, o); err != nil {
		return nil, err
	}
	t.deltas = make([][]float64, len(qs))
	for oi := range qs {
		t.deltas[oi] = make([]float64, len(t.vars))
	}
	for vi, s := range t.vars {
		t.byAttr[s.attr] = append(t.byAttr[s.attr], vi)
		t.all = append(t.all, vi)
		for oi := range qs {
			t.deltas[oi][vi] = s.vals[oi] - t.bases[oi]
		}
	}
	obs.MeterFromContext(ctx).Charge(obs.MeterJSON{
		HowToCandidates: uint64(len(t.vars)), WhatIfEvals: uint64(t.whatIfEvals())})
	return t, nil
}

// whatIfEvals counts the candidate what-if evaluations behind the table.
func (t *table) whatIfEvals() int { return len(t.vars) * len(t.qs) }

// gains is the objective row that optimizes objective oi: its deltas,
// negated for TOMINIMIZE (the solver maximizes).
func (t *table) gains(oi int) []float64 {
	if t.qs[oi].Maximize {
		return t.deltas[oi]
	}
	row := make([]float64, len(t.vars))
	for vi, d := range t.deltas[oi] {
		row[vi] = -d
	}
	return row
}

// model emits the 0/1 program of Equations 7-9 for one objective row: a
// variable per candidate and an SOS-1 row per HOWTOUPDATE attribute. The
// formulations append their own rows and the budget (addBudget) in the order
// each has always used, which fixes the branch-and-bound tree.
func (t *table) model(obj []float64) (*ip.Model, error) {
	m := ip.NewModel()
	for vi, v := range t.vars {
		m.AddVar(fmt.Sprintf("%s=%d", v.attr, vi), obj[vi])
	}
	for _, attr := range t.qs[0].Attrs {
		if len(t.byAttr[attr]) > 0 {
			if err := m.AddAtMostOne(t.byAttr[attr]); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// addBudget appends the LIMIT UPDATES <= k row (Equation 9) when the query
// has one.
func (t *table) addBudget(m *ip.Model) error {
	k, ok := budget(t.qs[0])
	if !ok {
		return nil
	}
	ones := make([]float64, len(t.vars))
	for i := range ones {
		ones[i] = 1
	}
	return m.AddLE(t.all, ones, float64(k))
}

// result turns a selection of table variables into the how-to outcome:
// choices in attribute order, the objective as the first objective's base
// plus the chosen deltas.
func (t *table) result(selected []int, nodes int) *Result {
	chosen := map[string]int{}
	for _, vi := range selected {
		chosen[t.vars[vi].attr] = vi
	}
	res := &Result{
		Base:        t.bases[0],
		Objective:   t.bases[0],
		Candidates:  len(t.vars),
		WhatIfEvals: t.whatIfEvals(),
		IPNodes:     nodes,
	}
	for _, attr := range t.qs[0].Attrs {
		c := Choice{Attr: attr}
		if vi, ok := chosen[attr]; ok {
			spec := t.vars[vi].spec
			c.Update = &spec
			c.Delta = t.deltas[0][vi]
			res.Objective += c.Delta
		}
		res.Choices = append(res.Choices, c)
	}
	res.Total = time.Since(t.start)
	return res
}
