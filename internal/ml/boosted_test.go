package ml

import (
	"math"
	"testing"

	"hyper/internal/stats"
)

func newTestRNG(seed int64) *stats.RNG { return stats.NewRNG(seed) }

func TestBoostedExtrapolatesLinearTrend(t *testing.T) {
	// y = 3x on x in [0, 10]; prediction at x = 15 must keep climbing
	// (a bare forest saturates at ~30).
	rng := newTestRNG(21)
	X := make([][]float64, 2000)
	y := make([]float64, 2000)
	for i := range X {
		x := rng.Float64() * 10
		X[i] = []float64{x}
		y[i] = 3*x + 0.2*rng.NormFloat64()
	}
	fr := FrameFromRows(X)
	b := FitBoostedFrame(fr, nil, y, ForestParams{NumTrees: 10, Seed: 21})
	f := FitForestFrame(fr, nil, y, ForestParams{NumTrees: 10, Seed: 21})
	atEdge := b.Predict([]float64{15})
	if atEdge < 40 {
		t.Errorf("boosted at x=15 = %.1f, should extrapolate beyond 40", atEdge)
	}
	if fEdge := f.Predict([]float64{15}); atEdge <= fEdge {
		t.Errorf("boosted (%.1f) should extrapolate beyond the bare forest (%.1f)", atEdge, fEdge)
	}
}

func TestBoostedMatchesForestInDistribution(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(x[0]) * 4 }
	X, y := makeXY(3000, 1, 22, f, 0.2)
	b := FitBoostedFrame(FrameFromRows(X), nil, y, ForestParams{NumTrees: 15, Seed: 22})
	if m := mse(b, X, y); m > 0.5 {
		t.Errorf("boosted in-distribution MSE = %.3f", m)
	}
}
