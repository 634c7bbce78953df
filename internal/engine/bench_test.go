package engine

// Hot-path micro-benchmarks. BenchmarkWhatIfCold measures an uncached
// evaluation end to end (view + training + tuple loop) on the freq-estimator
// path; allocations are reported so regressions in the per-row/per-tuple
// encoding cost are visible in `go test -bench`.

import (
	"context"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
)

func benchQuery(b *testing.B, src string) *hyperql.WhatIf {
	b.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkWhatIfCold evaluates the serving workload's lead query with no
// cache: every iteration pays view materialization, estimator training, and
// the per-tuple evaluation loop.
func BenchmarkWhatIfCold(b *testing.B) {
	g := dataset.GermanSyn(5000, 7)
	q := benchQuery(b, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(g.DB, g.Model, q, Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfColdFor adds a FOR predicate, exercising the
// inclusion-exclusion path (two regressors) per evaluation.
func BenchmarkWhatIfColdFor(b *testing.B) {
	g := dataset.GermanSyn(5000, 7)
	q := benchQuery(b, `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(g.DB, g.Model, q, Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorFit isolates estimator-set construction plus one freq
// model fit over the view (the dominant cost of a cold discrete what-if).
func BenchmarkEstimatorFit(b *testing.B) {
	g := dataset.GermanSyn(5000, 7)
	rel := g.DB.Relation("German")
	featCols := []string{"Status", "Age", "Sex", "Savings", "Housing"}
	opts := Options{Seed: 7}
	opts = opts.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newEstimatorSet(&view{rel: rel}, featCols, nil, 1, opts)
		ci := rel.Schema().MustIndex("Credit")
		m, err := s.model(context.Background(), "bench", 1, false, &labeler{eval: func(r int) (float64, error) {
			if rel.Row(r)[ci].AsInt() == 1 {
				return 1, nil
			}
			return 0, nil
		}})
		if err != nil || m == nil {
			b.Fatalf("no model: %v", err)
		}
	}
}
