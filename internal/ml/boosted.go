package ml

// Boosted is a two-stage regressor: a ridge linear model fit first, then a
// random forest fit on its residuals; predictions are the sum. In-sample it
// is at least as expressive as the forest alone, and outside the training
// support the linear trend keeps extrapolating where a bare forest would
// saturate at the nearest leaf — exactly the failure mode of hypothetical
// updates that push attributes to the edge of their observed range (e.g.
// "set every assignment score to 100").
type Boosted struct {
	lin    *Linear
	forest *Forest
}

// FitBoostedFrame trains the linear stage, then the forest stage on its
// residuals, over frame rows. sel maps training positions to frame rows (nil
// for identity); y is parallel to positions.
func FitBoostedFrame(fr *Frame, sel []int, y []float64, p ForestParams) *Boosted {
	lin := FitLinearFrame(fr, sel, y, 1e-6)
	resid := make([]float64, len(y))
	x := make([]float64, fr.Dim())
	for pos := range y {
		r := pos
		if sel != nil {
			r = sel[pos]
		}
		fr.Gather(r, x)
		resid[pos] = y[pos] - lin.Predict(x)
	}
	return &Boosted{lin: lin, forest: FitForestFrame(fr, sel, resid, p)}
}

// Predict returns the linear prediction plus the forest residual correction.
func (b *Boosted) Predict(x []float64) float64 {
	return b.lin.Predict(x) + b.forest.Predict(x)
}
