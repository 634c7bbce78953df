package prcm

import (
	"math"
	"testing"

	"hyper/internal/relation"
	"hyper/internal/stats"
)

func meanY(rel *relation.Relation) float64 {
	yi := rel.Schema().MustIndex("Y")
	s := 0.0
	for ix := range rel.Len() {
		row := rel.Row(ix)
		s += row[yi].AsFloat()
	}
	return s / float64(rel.Len())
}

// monteCarlo averages eval over n possible worlds sampled from w under the
// interventions: Definition 5 of the paper by simulation.
func monteCarlo(w *World, seed int64, n int, eval func(*relation.Relation) float64, ivs ...Intervention) float64 {
	rng := stats.NewRNG(seed)
	total := 0.0
	for i := 0; i < n; i++ {
		total += eval(w.SampleIntervention(rng, ivs...))
	}
	return total / float64(n)
}

func TestSampleInterventionForcesAndResamples(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(2000, 3)
	rng := stats.NewRNG(5)
	post := w.SampleIntervention(rng, Intervention{Attr: "X", Fn: func(float64) float64 { return 4 }})
	for i := 0; i < post.Len(); i++ {
		if post.Row(i)[1].AsInt() != 4 {
			t.Fatalf("X not forced at row %d", i)
		}
	}
	// Y must be resampled: E[Y | do(X=4)] = 8.
	if m := meanY(post); math.Abs(m-8) > 0.1 {
		t.Errorf("mean Y = %.3f, want ~8", m)
	}
	// Fresh noise: two samples must differ.
	post2 := w.SampleIntervention(rng, Intervention{Attr: "X", Fn: func(float64) float64 { return 4 }})
	same := 0
	for i := 0; i < post.Len(); i++ {
		if post.Row(i)[2].Equal(post2.Row(i)[2]) {
			same++
		}
	}
	if same > post.Len()/10 {
		t.Errorf("samples share %d/%d Y values; noise should be fresh", same, post.Len())
	}
}

func TestSampleInterventionUntouchedRowsUnchanged(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(500, 7)
	rng := stats.NewRNG(9)
	rows := map[int]bool{0: true, 1: true}
	post := w.SampleIntervention(rng, Intervention{Attr: "X", Rows: rows, Fn: func(float64) float64 { return 0 }})
	for i := 2; i < post.Len(); i++ {
		for j := range post.Row(i) {
			if !post.Row(i)[j].Equal(w.Rel.Row(i)[j]) {
				t.Fatalf("untouched row %d changed", i)
			}
		}
	}
}

func TestMonteCarloExpectationConverges(t *testing.T) {
	sem := lineSEM(t)
	w := sem.Generate(3000, 11)
	got := monteCarlo(w, 13, 30, meanY,
		Intervention{Attr: "X", Fn: func(float64) float64 { return 2 }})
	if math.Abs(got-4) > 0.05 {
		t.Errorf("MC E[Y | do(X=2)] = %.3f, want ~4", got)
	}
	// Consistency with the counterfactual expectation (same estimand, the
	// counterfactual is one particular noise draw).
	cf := meanY(w.Counterfactual(Intervention{Attr: "X", Fn: func(float64) float64 { return 2 }}))
	if math.Abs(got-cf) > 0.1 {
		t.Errorf("MC %.3f and counterfactual %.3f diverge", got, cf)
	}
}
