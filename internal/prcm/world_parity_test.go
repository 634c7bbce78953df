package prcm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hyper/internal/relation"
	"hyper/internal/stats"
)

// parityProgram reads a fuzz input one choice at a time; past its end every
// choice is 0.
type parityProgram struct {
	data []byte
	pos  int
}

func (p *parityProgram) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	p.pos++
	return p.data[p.pos-1]
}

// paritySEM draws a SEM of one to five attributes: categorical of one to
// four codes or continuous, each parent of an earlier attribute or not, nil,
// uniform or normal noise, and an equation that is linear (overshooting the
// codes at both ends), a signed zero, a sum of its parents' signs (so a -0
// parent differs from a +0 one) or huge.
func paritySEM(p *parityProgram) *SEM {
	attrs := make([]Attr, 1+int(p.next()%5))
	for i := range attrs {
		a := Attr{Name: fmt.Sprintf("A%d", i), Card: []int{0, 0, 1, 2, 4}[p.next()%5], Mutable: p.next()%2 == 0}
		for j := range i {
			if p.next()%2 == 0 {
				a.Parents = append(a.Parents, attrs[j].Name)
			}
		}
		switch p.next() % 4 {
		case 1:
			a.Noise = stats.Uniform{Lo: -2, Hi: 2}
		case 2:
			a.Noise = stats.Normal{Sigma: 3}
		case 3:
			a.Noise = stats.Uniform{Lo: 0, Hi: 5}
		}
		mode, bias, coef, parents := p.next()%4, float64(int8(p.next()))/4, float64(int8(p.next()))/16, a.Parents
		a.Fn = func(pv map[string]float64, nz float64) float64 {
			v := bias + nz
			for _, x := range parents {
				switch mode {
				case 0:
					v += coef * pv[x]
				case 2:
					v += math.Copysign(coef, pv[x])
				}
			}
			switch mode {
			case 1:
				return math.Copysign(0, v)
			case 3:
				return v * 1e12
			}
			return v
		}
		attrs[i] = a
	}
	return MustSEM("T", attrs)
}

// parityInterventions draws up to four interventions on the root, the middle
// attribute, the outcome or any attribute (a repeat of the previous one's
// attribute included), over all rows, none, some, rows past the end or a
// mix, setting a constant (out of the codes' range or -0 among them),
// scaling the pre-update value or leaving it.
func parityInterventions(p *parityProgram, s *SEM, n int) []Intervention {
	var ivs []Intervention
	for range int(p.next() % 5) {
		k := len(s.Attrs)
		ai := []int{0, k / 2, k - 1, int(p.next()) % k}[p.next()%4]
		if len(ivs) > 0 && p.next()%4 == 0 {
			ai = s.mustIndex(ivs[len(ivs)-1].Attr)
		}
		iv := Intervention{Attr: s.Attrs[ai].Name}
		switch p.next() % 5 {
		case 1:
			iv.Rows = map[int]bool{}
		case 2, 4:
			iv.Rows = map[int]bool{}
			for row := range n {
				if p.next()%2 == 0 {
					iv.Rows[row] = true
				}
			}
			if p.next()%2 == 0 {
				iv.Rows[0] = false
			}
		case 3:
			iv.Rows = map[int]bool{n: true, n + 7: true, -1: true}
		}
		c := float64(int8(p.next())) / 4
		switch p.next() % 4 {
		case 0:
			iv.Fn = func(float64) float64 { return c }
		case 1:
			iv.Fn = func(pre float64) float64 { return pre*c - 1 }
		case 2:
			iv.Fn = func(float64) float64 { return math.Copysign(0, -1) }
		default:
			iv.Fn = func(pre float64) float64 { return pre }
		}
		ivs = append(ivs, iv)
	}
	return ivs
}

// sameValue reports whether a and b are one value to the bit.
func sameValue(a, b relation.Value) bool {
	return a.Kind() == b.Kind() && a.AsInt() == b.AsInt() &&
		math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
}

// checkSameRelation fails unless got is want: name, schema, and in every
// column each row's code and value and the column's first-seen values and
// summary.
func checkSameRelation(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if got.Name() != want.Name() || !slices.Equal(got.Schema().Columns(), want.Schema().Columns()) || got.Len() != want.Len() {
		t.Fatalf("%s: relation %s %v (%d rows), want %s %v (%d rows)", what,
			got.Name(), got.Schema(), got.Len(), want.Name(), want.Schema(), want.Len())
	}
	for ci := range want.Schema().Len() {
		g, w := got.Coded(ci), want.Coded(ci)
		if !slices.EqualFunc(g.Values, w.Values, sameValue) || g.Nulls != w.Nulls || g.Numeric != w.Numeric ||
			math.Float64bits(g.Min) != math.Float64bits(w.Min) || math.Float64bits(g.Max) != math.Float64bits(w.Max) || g.Exact != w.Exact {
			t.Fatalf("%s: column %d: values %v nulls %d numeric %v [%v, %v] exact %v, want %v %d %v [%v, %v] %v", what, ci,
				g.Values, g.Nulls, g.Numeric, g.Min, g.Max, g.Exact, w.Values, w.Nulls, w.Numeric, w.Min, w.Max, w.Exact)
		}
		for i := range want.Len() {
			if g.At(i) != w.At(i) || !sameValue(got.Value(i, ci), want.Value(i, ci)) {
				t.Fatalf("%s: row %d column %d: code %d value %#v, want code %d value %#v", what, i, ci,
					g.At(i), got.Value(i, ci), w.At(i), want.Value(i, ci))
			}
		}
	}
}

// FuzzWorldParity holds Generate, Counterfactual, CounterfactualValues and
// SampleIntervention — one evaluator — to the three row loops they replaced
// (world_ref_test.go) at the same seeds: every column's codes, values and
// summary, each value's kind and bits, the recorded noise, and the number
// of fresh draws.
func FuzzWorldParity(f *testing.F) {
	f.Add(int64(1), []byte{5, 2, 0, 1, 0, 0, 1, 0, 8, 4, 0, 0, 1, 2, 1, 12, 16, 1, 0, 0, 9, 0})
	f.Add(int64(2), []byte{20, 3, 3, 0, 2, 1, 200, 32, 0, 1, 0, 1, 0, 4, 8, 0, 0, 0, 3, 1, 2, 0, 40, 0, 2, 2, 1, 2, 0, 1, 1, 0, 1, 5, 1})
	f.Add(int64(3), []byte{12, 4, 4, 1, 1, 0, 1, 0, 2, 0, 0, 0, 2, 2, 1, 6, 255, 0, 0, 0, 0, 2, 0, 3, 1, 1, 16, 0, 3, 2, 2, 1, 0, 1, 0, 1, 0, 4, 2, 0, 2, 0, 250, 2})
	f.Add(int64(4), []byte{0, 2, 3, 0, 1, 1, 1, 40, 2, 0, 2, 0, 3, 2, 0, 1})
	f.Add(int64(5), []byte{33, 4, 0, 0, 2, 1, 4, 9, 3, 0, 1, 0, 0, 1, 3, 0, 0, 0, 0, 3, 0, 0, 1, 2, 3, 3, 2, 1, 0, 1, 3, 9, 2, 2, 3, 0, 0, 0, 7, 1})
	f.Add(int64(6), []byte{251, 1, 0, 0, 1, 0, 6, 3, 2, 0, 2, 2, 0, 0, 64, 1})
	f.Add(int64(7), []byte{9, 4, 2, 0, 3, 0, 2, 4, 1, 3, 1, 1, 1, 2, 0, 0, 1, 3, 1, 2, 1, 1, 0, 4, 1, 2, 1, 1, 0, 0, 0, 1, 1, 0, 3, 3, 250, 4, 4, 2, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 2, 2})
	f.Add(int64(8), []byte{17, 2, 1, 1, 2, 0, 8, 200, 0, 4, 0, 3, 3, 100, 100, 3, 2, 0, 0, 2, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 4, 1, 1, 2, 0, 8, 0})
	// Two interventions on one attribute: the last one wins.
	f.Add(int64(164), []byte("120000000000"))
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		p := &parityProgram{data: data}
		n := int(p.next())
		if n >= 250 { // past the one-byte code limit
			n = 300
		} else {
			n %= 48
		}
		s := paritySEM(p)
		w, ref := s.Generate(n, seed), refGenerate(s, n, seed)
		checkSameRelation(t, "Generate", w.Rel, ref.Rel)
		if !slices.EqualFunc(w.Noise, ref.Noise, func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}) {
			t.Fatalf("Generate: noise %v, want %v", w.Noise, ref.Noise)
		}
		for round := range 2 {
			ivs := parityInterventions(p, s, n)
			what := fmt.Sprintf("round %d, %d interventions", round, len(ivs))
			want := refCounterfactual(w, ivs...)
			checkSameRelation(t, "Counterfactual, "+what, w.Counterfactual(ivs...), want)
			for ai, a := range s.Attrs {
				for row, v := range w.CounterfactualValues(a.Name, ivs...) {
					if wv := want.Value(row, ai+1).AsFloat(); math.Float64bits(v) != math.Float64bits(wv) {
						t.Fatalf("CounterfactualValues(%s), %s: row %d = %v, want %v", a.Name, what, row, v, wv)
					}
				}
			}
			rng, refRNG := stats.NewRNG(seed+int64(round)), stats.NewRNG(seed+int64(round))
			checkSameRelation(t, "SampleIntervention, "+what, w.SampleIntervention(rng, ivs...), refSampleIntervention(w, refRNG, ivs...))
			if rng.Uint64() != refRNG.Uint64() {
				t.Fatalf("SampleIntervention, %s: drew a different number of noise terms", what)
			}
		}
	})
}

// TestUndeclaredAttributePanics pins that an intervention on, or a column
// of, an attribute the SEM does not declare panics with its name instead of
// answering as if nothing were changed.
func TestUndeclaredAttributePanics(t *testing.T) {
	w := lineSEM(t).Generate(10, 1)
	iv := Intervention{Attr: "Z", Fn: func(float64) float64 { return 1 }}
	for name, call := range map[string]func(){
		"Counterfactual":                func() { w.Counterfactual(iv) },
		"SampleIntervention":            func() { w.SampleIntervention(stats.NewRNG(1), iv) },
		"CounterfactualValues":          func() { w.CounterfactualValues("Y", iv) },
		"CounterfactualValues(outcome)": func() { w.CounterfactualValues("Z") },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"Z"`) {
					t.Errorf("%s: panic %q, want one naming \"Z\"", name, msg)
				}
			}()
			call()
		}()
	}
}
