package prcm

import (
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// The three row loops the structural-equation evaluator replaced, kept
// verbatim (renamed, with their helpers) as the oracle of FuzzWorldParity:
// each builds its relation one Insert at a time.

// AttrIndex returns the declaration index of the named attribute, or -1.
func (s *SEM) AttrIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

func refClampAttr(a Attr, v float64) float64 {
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

func refEncode(a Attr, v float64) relation.Value {
	if a.Card > 0 {
		return relation.Int(int64(v))
	}
	return relation.Float(v)
}

// refGenerate is the replaced SEM.Generate.
func refGenerate(s *SEM, n int, seed int64) *World {
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
			v = refClampAttr(a, v)
			vals[a.Name] = v
			t[ai+1] = refEncode(a, v)
		}
		if err := rel.Insert(t); err != nil {
			panic(err) // keys are sequential; cannot collide
		}
	}
	return &World{SEM: s, Rel: rel, Noise: noise}
}

// refCounterfactual is the replaced World.Counterfactual.
func refCounterfactual(w *World, interventions ...Intervention) *relation.Relation {
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
				v = refClampAttr(a, iv.Fn(w.Rel.Value(row, ai+1).AsFloat()))
			} else {
				v = refClampAttr(a, a.Fn(vals, w.Noise[row][ai]))
			}
			vals[a.Name] = v
			t[ai+1] = refEncode(a, v)
		}
		if err := out.Insert(t); err != nil {
			panic(err)
		}
	}
	return out
}

// refSampleIntervention is the replaced World.SampleIntervention.
func refSampleIntervention(w *World, rng *stats.RNG, interventions ...Intervention) *relation.Relation {
	s := w.SEM
	byAttr := make(map[string]*Intervention, len(interventions))
	for i := range interventions {
		byAttr[interventions[i].Attr] = &interventions[i]
	}
	// Mark attributes downstream of any intervention (by declaration order,
	// transitively through parents).
	downstream := make([]bool, len(s.Attrs))
	for ai, a := range s.Attrs {
		if _, ok := byAttr[a.Name]; ok {
			downstream[ai] = true
			continue
		}
		for _, p := range a.Parents {
			if pi := s.AttrIndex(p); pi >= 0 && downstream[pi] {
				downstream[ai] = true
				break
			}
		}
	}

	out := relation.NewRelation(s.RelName, s.Schema())
	vals := make(map[string]float64, len(s.Attrs))
	t := make(relation.Tuple, len(s.Attrs)+1) // Insert keeps none of it
	for row := 0; row < w.Rel.Len(); row++ {
		// Rows no intervention touches are unaffected possible-world-wise:
		// their tuple state carries over unchanged (the paper's zero-
		// probability worlds are exactly those that change them).
		touched := false
		for _, iv := range byAttr {
			if iv.Rows == nil || iv.Rows[row] {
				touched = true
				break
			}
		}
		for c := range t {
			t[c] = w.Rel.Value(row, c)
		}
		if !touched {
			if err := out.Insert(t); err != nil {
				panic(err)
			}
			continue
		}
		for ai, a := range s.Attrs {
			var v float64
			switch {
			case byAttr[a.Name] != nil && (byAttr[a.Name].Rows == nil || byAttr[a.Name].Rows[row]):
				v = refClampAttr(a, byAttr[a.Name].Fn(t[ai+1].AsFloat()))
			case downstream[ai]:
				var nz float64
				if a.Noise != nil {
					nz = a.Noise.Sample(rng)
				}
				v = refClampAttr(a, a.Fn(vals, nz))
			default:
				v = t[ai+1].AsFloat()
			}
			vals[a.Name] = v
			t[ai+1] = refEncode(a, v)
		}
		if err := out.Insert(t); err != nil {
			panic(err) // keys copied unchanged; cannot collide
		}
	}
	return out
}
