// Package prcm implements probabilistic relational causal models (Section
// 2.2): structural equations over attributes, and one evaluator of them that
// generates relational data with recorded exogenous noise, re-evaluates it
// counterfactually under interventions, and samples possible worlds. The
// dataset generators use it for synthetic data, and the experiments for the
// exact ground truth the paper obtains "using the structural equations of
// the causal DAG" (Section 5.4).
package prcm

import (
	"fmt"
	"slices"

	"hyper/internal/causal"
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// Attr is one endogenous attribute with its structural equation
//
//	value = Fn(parentValues, noise)
//
// where noise ~ Noise. Attributes are declared in topological order. Card >
// 0 marks a categorical attribute with codes 0..Card-1 (stored as ints and
// clamped); Card == 0 marks a continuous attribute (stored as float).
type Attr struct {
	Name    string
	Parents []string
	Card    int
	Noise   stats.Dist
	Fn      func(parents map[string]float64, noise float64) float64
	Mutable bool
}

// SEM is a structural equation model over one relation. The generated
// relation carries an integer key column "ID" followed by the attributes in
// declaration order.
type SEM struct {
	RelName string
	Attrs   []Attr
	index   map[string]int
}

// NewSEM builds a SEM, checking that its declaration order is topological.
func NewSEM(relName string, attrs []Attr) (*SEM, error) {
	s := &SEM{RelName: relName, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("prcm: duplicate attribute %q", a.Name)
		}
		for _, p := range a.Parents {
			if _, ok := s.index[p]; !ok {
				return nil, fmt.Errorf("prcm: attribute %q lists parent %q before its declaration", a.Name, p)
			}
		}
		if a.Fn == nil {
			return nil, fmt.Errorf("prcm: attribute %q has no structural equation", a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSEM is NewSEM that panics on error.
func MustSEM(relName string, attrs []Attr) *SEM {
	s, err := NewSEM(relName, attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Schema returns the relation schema generated by the SEM.
func (s *SEM) Schema() *relation.Schema {
	cols := []relation.Column{{Name: "ID", Kind: relation.KindInt, Key: true}}
	for _, a := range s.Attrs {
		k := relation.KindFloat
		if a.Card > 0 {
			k = relation.KindInt
		}
		cols = append(cols, relation.Column{Name: a.Name, Kind: k, Mutable: a.Mutable})
	}
	return relation.MustSchema(cols...)
}

// CausalModel returns the SEM's attribute-level causal model, with nodes
// qualified by the relation name.
func (s *SEM) CausalModel() *causal.Model {
	m := causal.NewModel()
	for _, a := range s.Attrs {
		m.Attr.AddNode(causal.Qualify(s.RelName, a.Name))
		for _, p := range a.Parents {
			m.AddEdge(causal.Qualify(s.RelName, p), causal.Qualify(s.RelName, a.Name))
		}
	}
	return m
}

// World is a generated instance plus the recorded noise draws, enabling
// exact counterfactuals.
type World struct {
	SEM   *SEM
	Rel   *relation.Relation
	Noise [][]float64 // Noise[row][attr]
}

// Generate samples n tuples with the given seed, recording every noise draw.
func (s *SEM) Generate(n int, seed int64) *World {
	rng, w := stats.NewRNG(seed), &World{SEM: s, Noise: make([][]float64, n)}
	for row := range w.Noise {
		w.Noise[row] = make([]float64, len(s.Attrs))
		for ai, a := range s.Attrs {
			if a.Noise != nil {
				w.Noise[row][ai] = a.Noise.Sample(rng)
			}
		}
	}
	w.Rel = w.relation(w.evaluate(n, nil, nil))
	return w
}

// Intervention fixes the named attribute for the selected rows (nil rows
// means all rows) to the value produced by Fn from its pre-update value —
// the do-operator of Section 2.2.
type Intervention struct {
	Attr string
	Rows map[int]bool // nil = all rows
	Fn   func(pre float64) float64
}

// Counterfactual re-evaluates the structural equations with the recorded
// noise under the interventions, producing the exact post-update instance:
// intervened attributes take their forced values; all other attributes are
// recomputed from their (possibly changed) parents with the original noise.
func (w *World) Counterfactual(interventions ...Intervention) *relation.Relation {
	return w.relation(w.evaluate(w.Rel.Len(), nil, interventions))
}

// CounterfactualValues is the named attribute's column of
// Counterfactual(interventions...) as floats, without building a relation.
func (w *World) CounterfactualValues(attr string, interventions ...Intervention) []float64 {
	cols, _ := w.evaluate(w.Rel.Len(), nil, interventions)
	return cols[w.SEM.mustIndex(attr)+1]
}

// SampleIntervention draws one possible world of the post-update distribution
// (Definitions 1-3): Counterfactual with fresh noise, on covered rows only.
// Averaging a query over such worlds is Definition 5 by simulation.
func (w *World) SampleIntervention(rng *stats.RNG, interventions ...Intervention) *relation.Relation {
	return w.relation(w.evaluate(w.Rel.Len(), rng, interventions))
}

// evaluate is the one evaluator of the structural equations: over n rows,
// then the attributes in order, it returns a value column per schema column
// and which may change (intervened attributes and their descendants; all,
// while w has no relation). An attribute is forced (its intervention's Fn of
// the observed value) where that intervention covers the row, recomputed (Fn
// of parents and noise, recorded or, given rng, fresh) where it may change
// and some intervention covers the row, else observed; then clamped.
func (w *World) evaluate(n int, rng *stats.RNG, ivs []Intervention) (cols [][]float64, changed []bool) {
	s := w.SEM
	forced := make([]*Intervention, len(s.Attrs)+1)
	for i := range ivs {
		forced[s.mustIndex(ivs[i].Attr)+1] = &ivs[i]
	}
	covers := func(iv *Intervention, row int) bool { return iv != nil && (iv.Rows == nil || iv.Rows[row]) }
	cols, changed = make([][]float64, len(forced)), make([]bool, len(forced))
	for ci := range cols {
		cols[ci], changed[ci] = make([]float64, n), w.Rel == nil || forced[ci] != nil ||
			ci > 0 && slices.ContainsFunc(s.Attrs[ci-1].Parents, func(p string) bool { return changed[s.index[p]+1] })
	}
	vals := make(map[string]float64, len(s.Attrs))
	for row := range n {
		touched := w.Rel == nil || slices.ContainsFunc(forced, func(iv *Intervention) bool { return covers(iv, row) })
		cols[0][row] = float64(row)
		for ci := 1; ci < len(cols); ci++ {
			a, v := &s.Attrs[ci-1], 0.0
			switch {
			case covers(forced[ci], row):
				v = forced[ci].Fn(w.Rel.Value(row, ci).AsFloat())
			case !touched || !changed[ci]:
				v = w.Rel.Value(row, ci).AsFloat()
			case rng == nil:
				v = a.Fn(vals, w.Noise[row][ci-1])
			case a.Noise != nil:
				v = a.Fn(vals, a.Noise.Sample(rng))
			default:
				v = a.Fn(vals, 0)
			}
			if a.Card > 0 {
				v = float64(min(max(int(v), 0), a.Card-1))
			}
			vals[a.Name], cols[ci][row] = v, v
		}
	}
	return cols, changed
}

// relation builds the relation of cols, gathering the unchanged from w.Rel.
func (w *World) relation(cols [][]float64, changed []bool) *relation.Relation {
	schema, rows := w.SEM.Schema(), make([]int32, len(cols[0]))
	for row := range rows {
		rows[row] = int32(row)
	}
	out, vals := make([]*relation.CodedColumn, len(cols)), make([]relation.Value, len(rows))
	for ci, col := range cols {
		if !changed[ci] {
			out[ci] = relation.Gather(w.Rel.Coded(ci), rows)
			continue
		}
		for row, v := range col {
			vals[row] = relation.Coerce(relation.Float(v), schema.Col(ci).Kind)
		}
		out[ci] = relation.ColumnOf(vals)
	}
	rel, err := relation.FromColumns(w.SEM.RelName, schema, out)
	if err != nil {
		panic(err) // w.Rel's keys or the row numbers: they cannot collide
	}
	return rel
}

// mustIndex is the index of a declared attribute; any other name panics.
func (s *SEM) mustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Errorf("prcm: %s has no attribute %q", s.RelName, name))
	}
	return i
}
