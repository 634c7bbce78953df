// Package prcm implements probabilistic relational causal models (Section
// 2.2): structural equations over attributes, forward generation of
// relational data with recorded exogenous noise, and counterfactual
// re-evaluation under interventions. The dataset generators use it to
// produce synthetic data, and the experiment harness uses its counterfactual
// mode to compute the exact ground truth the paper obtains "using the
// structural equations of the causal DAG" (Section 5.4).
package prcm

import (
	"fmt"

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

// NewSEM builds a SEM after validating that parents are declared before
// children (i.e., the declaration order is topological).
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
	cols := make([]relation.Column, 0, len(s.Attrs)+1)
	cols = append(cols, relation.Column{Name: "ID", Kind: relation.KindInt, Key: true})
	for _, a := range s.Attrs {
		k := relation.KindFloat
		if a.Card > 0 {
			k = relation.KindInt
		}
		cols = append(cols, relation.Column{Name: a.Name, Kind: k, Mutable: a.Mutable})
	}
	return relation.MustSchema(cols...)
}

// CausalModel returns the attribute-level causal model implied by the SEM,
// with nodes qualified by the relation name.
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

// Generate samples n tuples from the SEM with the given seed, recording all
// noise draws.
func (s *SEM) Generate(n int, seed int64) *World {
	rel := relation.NewRelation(s.RelName, s.Schema())
	noise := make([][]float64, n)
	rng := stats.NewRNG(seed)
	vals := make(map[string]float64, len(s.Attrs))
	t := make(relation.Tuple, len(s.Attrs)+1) // Insert keeps none of it
	for row := 0; row < n; row++ {
		noise[row] = make([]float64, len(s.Attrs))
		t[0] = relation.Int(int64(row))
		for ai, a := range s.Attrs {
			var nz float64
			if a.Noise != nil {
				nz = a.Noise.Sample(rng)
			}
			noise[row][ai] = nz
			v := a.Fn(vals, nz)
			v = s.clampAttr(a, v)
			vals[a.Name] = v
			t[ai+1] = s.encode(a, v)
		}
		if err := rel.Insert(t); err != nil {
			panic(err) // keys are sequential; cannot collide
		}
	}
	return &World{SEM: s, Rel: rel, Noise: noise}
}

func (s *SEM) clampAttr(a Attr, v float64) float64 {
	if a.Card > 0 {
		iv := float64(int(v))
		if iv < 0 {
			iv = 0
		}
		if iv > float64(a.Card-1) {
			iv = float64(a.Card - 1)
		}
		return iv
	}
	return v
}

func (s *SEM) encode(a Attr, v float64) relation.Value {
	if a.Card > 0 {
		return relation.Int(int64(v))
	}
	return relation.Float(v)
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
	s := w.SEM
	byAttr := make(map[string]*Intervention, len(interventions))
	for i := range interventions {
		byAttr[interventions[i].Attr] = &interventions[i]
	}
	out := relation.NewRelation(s.RelName, s.Schema())
	vals := make(map[string]float64, len(s.Attrs))
	t := make(relation.Tuple, len(s.Attrs)+1) // Insert keeps none of it
	for row := 0; row < w.Rel.Len(); row++ {
		t[0] = w.Rel.Value(row, 0)
		for ai, a := range s.Attrs {
			var v float64
			if iv, ok := byAttr[a.Name]; ok && (iv.Rows == nil || iv.Rows[row]) {
				v = s.clampAttr(a, iv.Fn(w.Rel.Value(row, ai+1).AsFloat()))
			} else {
				v = s.clampAttr(a, a.Fn(vals, w.Noise[row][ai]))
			}
			vals[a.Name] = v
			t[ai+1] = s.encode(a, v)
		}
		if err := out.Insert(t); err != nil {
			panic(err)
		}
	}
	return out
}

// AttrIndex returns the declaration index of the named attribute, or -1.
func (s *SEM) AttrIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}
