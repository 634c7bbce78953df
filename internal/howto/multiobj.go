package howto

import (
	"context"
	"fmt"

	"hyper/internal/causal"
	"hyper/internal/hyperql"
	"hyper/internal/ip"
	"hyper/internal/relation"
)

// Lexicographic solves a preferential multi-objective how-to query (the
// extension of Section 4.3): the queries share USE/WHEN/HOWTOUPDATE/LIMIT
// but carry objectives in decreasing priority. The IP is re-solved per
// objective with the previously achieved objective values added as equality
// constraints (Example 11). ctx flows into candidate scoring and every
// per-objective IP solve.
func Lexicographic(ctx context.Context, db *relation.Database, model *causal.Model, qs []*hyperql.HowTo, opts Options) (*Result, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("howto: no objectives")
	}
	t, err := newTable(ctx, db, model, qs, opts)
	if err != nil {
		return nil, err
	}
	selected, nodes, err := t.solveLexicographic(ctx)
	if err != nil {
		return nil, err
	}
	return t.result(selected, nodes), nil
}

// lexModel is the program of priority level oi: that objective's gains, the
// budget, and every higher-priority objective pinned to the delta sum its
// own level achieved (within a small tolerance, as a <= / >= pair).
func (t *table) lexModel(oi int, pinned []float64) (*ip.Model, error) {
	m, err := t.model(t.gains(oi))
	if err != nil {
		return nil, err
	}
	if err := t.addBudget(m); err != nil {
		return nil, err
	}
	for pi, target := range pinned {
		const tol = 1e-6
		if err := m.AddLE(t.all, t.deltas[pi], target+tol); err != nil {
			return nil, err
		}
		if err := m.AddGE(t.all, t.deltas[pi], target-tol); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// solveLexicographic optimizes the table's objectives in priority order and
// returns the last level's selection with the nodes explored across levels.
// With one objective it is the plain IP of Equations 7-9.
func (t *table) solveLexicographic(ctx context.Context) (selected []int, nodes int, err error) {
	var pinned []float64
	for oi := range t.qs {
		m, err := t.lexModel(oi, pinned)
		if err != nil {
			return nil, 0, err
		}
		sol, err := m.SolveContext(ctx)
		if err != nil {
			return nil, 0, err
		}
		nodes += sol.Nodes
		selected = sol.Selected()
		// The achieved delta-sum for this objective becomes a constraint for
		// the next one.
		achieved := 0.0
		for _, vi := range selected {
			achieved += t.deltas[oi][vi]
		}
		pinned = append(pinned, achieved)
	}
	return selected, nodes, nil
}
