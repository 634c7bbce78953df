package prcm

import (
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// SampleIntervention draws one possible world from the post-update
// distribution (Definitions 1-3 of the paper): intervened attributes take
// their forced values; attributes causally downstream of an intervention are
// re-evaluated with freshly drawn noise; everything else keeps its observed
// value. Averaging a query over many such worlds is the direct Monte-Carlo
// implementation of the possible-world semantics (Definition 5), used as a
// reference to validate the engine's closed-form computation.
func (w *World) SampleIntervention(rng *stats.RNG, interventions ...Intervention) *relation.Relation {
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
				v = s.clampAttr(a, byAttr[a.Name].Fn(t[ai+1].AsFloat()))
			case downstream[ai]:
				var nz float64
				if a.Noise != nil {
					nz = a.Noise.Sample(rng)
				}
				v = s.clampAttr(a, a.Fn(vals, nz))
			default:
				v = t[ai+1].AsFloat()
			}
			vals[a.Name] = v
			t[ai+1] = s.encode(a, v)
		}
		if err := out.Insert(t); err != nil {
			panic(err) // keys copied unchanged; cannot collide
		}
	}
	return out
}

// MonteCarloExpectation averages eval over n sampled possible worlds,
// implementing Definition 5 by simulation.
func (w *World) MonteCarloExpectation(seed int64, n int, eval func(*relation.Relation) float64, interventions ...Intervention) float64 {
	rng := stats.NewRNG(seed)
	total := 0.0
	for i := 0; i < n; i++ {
		total += eval(w.SampleIntervention(rng, interventions...))
	}
	return total / float64(n)
}
