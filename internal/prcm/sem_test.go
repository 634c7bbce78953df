package prcm

import (
	"math"
	"testing"
	"testing/quick"

	"hyper/internal/stats"
)

// lineSEM: X ~ U(0,4) categorical; Y = 2X + noise (continuous).
func lineSEM(t *testing.T) *SEM {
	t.Helper()
	return MustSEM("T", []Attr{
		{Name: "X", Card: 5, Noise: stats.Uniform{Lo: 0, Hi: 5},
			Fn: func(_ map[string]float64, nz float64) float64 { return math.Floor(nz) }},
		{Name: "Y", Mutable: true, Parents: []string{"X"}, Noise: stats.Normal{Sigma: 0.5},
			Fn: func(p map[string]float64, nz float64) float64 { return 2*p["X"] + nz }},
	})
}

func TestSEMValidation(t *testing.T) {
	if _, err := NewSEM("T", []Attr{
		{Name: "A", Fn: func(map[string]float64, float64) float64 { return 0 }},
		{Name: "A", Fn: func(map[string]float64, float64) float64 { return 0 }},
	}); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := NewSEM("T", []Attr{
		{Name: "B", Parents: []string{"A"}, Fn: func(map[string]float64, float64) float64 { return 0 }},
	}); err == nil {
		t.Error("parent before declaration should fail")
	}
	if _, err := NewSEM("T", []Attr{{Name: "A"}}); err == nil {
		t.Error("missing equation should fail")
	}
}

func TestGenerateSchemaAndDeterminism(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(500, 42)
	if w.Rel.Len() != 500 {
		t.Fatalf("rows = %d", w.Rel.Len())
	}
	s := w.Rel.Schema()
	if !s.Col(0).Key || s.Col(0).Name != "ID" {
		t.Error("ID key column missing")
	}
	if s.Col(1).Name != "X" || s.Col(2).Name != "Y" {
		t.Errorf("schema = %v", s.Names())
	}
	w2 := sem.Generate(500, 42)
	for i := 0; i < 500; i++ {
		if !w.Rel.Row(i)[2].Equal(w2.Rel.Row(i)[2]) {
			t.Fatal("generation must be deterministic per seed")
		}
	}
	w3 := sem.Generate(500, 43)
	diff := 0
	for i := 0; i < 500; i++ {
		if !w.Rel.Row(i)[2].Equal(w3.Rel.Row(i)[2]) {
			diff++
		}
	}
	if diff < 400 {
		t.Errorf("different seeds should differ, only %d rows changed", diff)
	}
}

func TestCategoricalClamping(t *testing.T) {
	sem := MustSEM("T", []Attr{
		{Name: "C", Card: 3, Noise: stats.Normal{Mu: 10, Sigma: 1},
			Fn: func(_ map[string]float64, nz float64) float64 { return nz }},
	})
	w := sem.Generate(100, 1)
	for ix := range w.Rel.Len() {
		row := w.Rel.Row(ix)
		v := row[1].AsInt()
		if v < 0 || v > 2 {
			t.Fatalf("categorical value %d out of [0,2]", v)
		}
	}
}

func TestCounterfactualIdentityIsNoOp(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(300, 7)
	post := w.Counterfactual() // no interventions
	for i := 0; i < 300; i++ {
		for j := range w.Rel.Row(i) {
			if !w.Rel.Row(i)[j].Equal(post.Row(i)[j]) {
				t.Fatalf("row %d col %d changed without intervention: %v -> %v",
					i, j, w.Rel.Row(i)[j], post.Row(i)[j])
			}
		}
	}
}

func TestCounterfactualPropagates(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(2000, 7)
	post := w.Counterfactual(Intervention{Attr: "X", Fn: func(float64) float64 { return 4 }})
	// Every X is forced to 4; Y must be recomputed as 2*4 + original noise.
	yIdx := sem.AttrIndex("Y") + 1
	for i := 0; i < w.Rel.Len(); i++ {
		if post.Row(i)[1].AsInt() != 4 {
			t.Fatalf("X not forced at row %d", i)
		}
		wantY := 8 + w.Noise[i][1]
		if math.Abs(post.Row(i)[yIdx].AsFloat()-wantY) > 1e-9 {
			t.Fatalf("Y not recomputed with stored noise at row %d", i)
		}
	}
}

func TestCounterfactualSubsetRows(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(100, 7)
	rows := map[int]bool{3: true, 4: true}
	post := w.Counterfactual(Intervention{Attr: "X", Rows: rows, Fn: func(float64) float64 { return 0 }})
	for i := 0; i < 100; i++ {
		forced := rows[i]
		if forced && post.Row(i)[1].AsInt() != 0 {
			t.Fatalf("row %d should be forced", i)
		}
		if !forced && !post.Row(i)[1].Equal(w.Rel.Row(i)[1]) {
			t.Fatalf("row %d should be unchanged", i)
		}
	}
}

func TestInterventionOnOutcomeCutsEquation(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(100, 7)
	post := w.Counterfactual(Intervention{Attr: "Y", Fn: func(float64) float64 { return -1 }})
	for i := 0; i < 100; i++ {
		if post.Row(i)[2].AsFloat() != -1 {
			t.Fatal("intervened attribute must take the forced value")
		}
		// X upstream is untouched.
		if !post.Row(i)[1].Equal(w.Rel.Row(i)[1]) {
			t.Fatal("upstream attribute changed")
		}
	}
}

func TestCausalModelExport(t *testing.T) {
	sem := lineSEM(t)
	m := sem.CausalModel()
	if !m.Attr.Has("T.X") || !m.Attr.Has("T.Y") {
		t.Fatal("nodes missing")
	}
	edges := m.Attr.Edges()
	if len(edges) != 1 || edges[0][0] != "T.X" || edges[0][1] != "T.Y" {
		t.Errorf("edges = %v", edges)
	}
}

func TestAttrHelpers(t *testing.T) {
	sem := lineSEM(t)
	if sem.AttrIndex("Y") != 1 || sem.AttrIndex("Nope") != -1 {
		t.Error("AttrIndex")
	}
}

// Property: the average treatment effect computed by counterfactual pairs
// matches the analytic effect of the linear SEM (Y = 2X: forcing X from a to
// b shifts Y by exactly 2(b-a) per row).
func TestCounterfactualLinearityProperty(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(500, 3)
	f := func(a8, b8 uint8) bool {
		a, b := float64(a8%5), float64(b8%5)
		pa := w.Counterfactual(Intervention{Attr: "X", Fn: func(float64) float64 { return a }})
		pb := w.Counterfactual(Intervention{Attr: "X", Fn: func(float64) float64 { return b }})
		for i := 0; i < w.Rel.Len(); i++ {
			dy := pb.Row(i)[2].AsFloat() - pa.Row(i)[2].AsFloat()
			if math.Abs(dy-2*(b-a)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
