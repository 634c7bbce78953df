package ml

// FreqEstimator fit/predict benchmarks with allocation reporting: the
// support index is the reason discrete what-ifs stay linear in data size
// (A.4), so its per-row cost — and especially per-row allocations — is the
// engine's hot path. BenchmarkForestFit is the other estimator's: a
// continuous view's fit is mostly tree induction.

import "testing"

// benchFreqData builds a discrete feature matrix shaped like the German
// conditioning set: dim features with small integer domains.
func benchFreqData(rows, dim int) ([][]float64, []float64) {
	X := make([][]float64, rows)
	y := make([]float64, rows)
	flat := make([]float64, rows*dim)
	state := uint64(0x9e3779b97f4a7c15)
	for r := 0; r < rows; r++ {
		X[r] = flat[r*dim : (r+1)*dim]
		for c := 0; c < dim; c++ {
			state = state*6364136223846793005 + 1442695040888963407
			X[r][c] = float64((state >> 33) % 4)
		}
		y[r] = float64((state >> 17) % 2)
	}
	return X, y
}

func BenchmarkFreqFit(b *testing.B) {
	X, y := benchFreqData(20000, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := FitFreqKeep(X, y, 1)
		if f.Support() == 0 {
			b.Fatal("empty support")
		}
	}
}

// BenchmarkForestFit is the fit a continuous Figure-1 what-if pays: the
// linear stage, then 20 trees over the 4,000-product view at default
// parameters. Tree induction is most of it. Rtng is the label of
// AVG(POST(Rtng)); Rtng>=4 the 0/1 label of COUNT(POST(Rtng) >= 4), the same
// query shape's other forest. Run with -cpu 1 to time one core's work rather
// than the forest's fan-out.
func BenchmarkForestFit(b *testing.B) {
	fr, rtng := figure1Frame(b, 4000)
	atLeast4 := make([]float64, len(rtng))
	for i, v := range rtng {
		if v >= 4 {
			atLeast4[i] = 1
		}
	}
	for _, c := range []struct {
		name string
		y    []float64
	}{{"Rtng", rtng}, {"Rtng>=4", atLeast4}} {
		b.Run(c.name, func(b *testing.B) {
			p := DefaultForestParams()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := FitBoostedFrame(fr, nil, c.y, p); len(m.forest.trees) != p.NumTrees {
					b.Fatalf("%d trees, want %d", len(m.forest.trees), p.NumTrees)
				}
			}
		})
	}
}

func BenchmarkFreqPredict(b *testing.B) {
	X, y := benchFreqData(20000, 6)
	f := FitFreqKeep(X, y, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := f.Predict(X[i%len(X)]); v < 0 {
			b.Fatal("negative mean")
		}
	}
}
