package ml

// FreqEstimator fit/predict benchmarks with allocation reporting: the
// support index is the reason discrete what-ifs stay linear in data size
// (A.4), so its per-row cost — and especially per-row allocations — is the
// engine's hot path. BenchmarkForestFit is the other estimator's: a
// continuous view's fit is mostly tree induction.

import (
	"testing"

	"hyper/internal/relation"
	"hyper/internal/shard"
)

// benchFreqData builds a discrete feature matrix shaped like the German
// conditioning set: dim features with domain values each, and 0/1 labels.
func benchFreqData(rows, dim, domain int) ([][]float64, []float64) {
	X := make([][]float64, rows)
	y := make([]float64, rows)
	flat := make([]float64, rows*dim)
	state := uint64(0x9e3779b97f4a7c15)
	for r := 0; r < rows; r++ {
		X[r] = flat[r*dim : (r+1)*dim]
		for c := 0; c < dim; c++ {
			state = state*6364136223846793005 + 1442695040888963407
			X[r][c] = float64((state >> 33) % uint64(domain))
		}
		y[r] = float64((state >> 17) % 2)
	}
	return X, y
}

// BenchmarkFreqFit times the two halves of a cold freq model over 20,000
// rows of features, each column a relation column as in the engine: index
// builds the support index, fit/integer fits 0/1 labels on it and fit/float
// fractional ones. Six columns of four values make the exact level a flat
// table (dense), of five a map of packed keys (packed); both index more than
// 256 combinations, so their exact ids take four bytes a row. Four columns of
// four values (narrow) have at most 256, held one byte a row.
func BenchmarkFreqFit(b *testing.B) {
	for _, regime := range []struct {
		name        string
		dim, domain int
		narrow      bool // at most 256 exact combinations
	}{{"dense", 6, 4, false}, {"packed", 6, 5, false}, {"narrow", 4, 4, true}} {
		X, integer := benchFreqData(20000, regime.dim, regime.domain)
		cols := make([][]float64, len(X[0]))
		coded := make([]*relation.CodedColumn, len(cols))
		for c := range cols {
			vals := make([]relation.Value, len(X))
			for r, x := range X {
				vals[r] = relation.Int(int64(x[c]))
			}
			coded[c] = relation.ColumnOf(vals)
			cols[c] = coded[c].Encoded()
		}
		fr := FrameOfColumns(cols, coded, 1)
		fr.Intern()
		rows := identityRows(len(X))
		float := make([]float64, len(integer))
		for i, v := range integer {
			float[i] = v + 0.25*float64(i%3)
		}
		b.Run(regime.name+"/index", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if NewFreqIndex(fr, rows, 1).Len() == 0 {
					b.Fatal("empty support")
				}
			}
		})
		ix := NewFreqIndex(fr, rows, 1)
		if exact := ix.levels[0].n; (exact <= 256) != regime.narrow {
			b.Fatalf("%s: %d exact combinations", regime.name, exact)
		}
		for _, labels := range []struct {
			name string
			y    []float64
		}{{"integer", integer}, {"float", float}} {
			b.Run(regime.name+"/fit/"+labels.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if ix.Fit(labels.y, shard.Plan{}, 1).ix.Len() == 0 {
						b.Fatal("empty support")
					}
				}
			})
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
	X, y := benchFreqData(20000, 6, 4)
	f := FitFreqKeep(X, y, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := f.Predict(X[i%len(X)]); v < 0 {
			b.Fatal("negative mean")
		}
	}
}
