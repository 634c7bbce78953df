package engine

// Hot-path micro-benchmarks. BenchmarkWhatIfCold measures an uncached
// evaluation end to end (view + training + tuple loop) on the freq-estimator
// path; allocations are reported so regressions in the per-row/per-tuple
// encoding cost are visible in `go test -bench`.

import (
	"context"
	"strconv"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/obs"
	"hyper/internal/sqlmini"
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

// BenchmarkEstimatorFit isolates estimator-set construction plus its freq
// fits over the view (the dominant cost of a cold discrete what-if): the one
// model a COUNT what-if fits, and the two an AVG what-if fits over one set
// (the output attribute's value and the event indicator). Labels read the
// column in place, so the timing is the set and its fits, not tuple building.
func BenchmarkEstimatorFit(b *testing.B) {
	g := dataset.GermanSyn(5000, 7)
	rel := g.DB.Relation("German")
	ci := rel.Schema().MustIndex("Credit")
	featCols := []string{"Status", "Age", "Sex", "Savings", "Housing"}
	opts := Options{Seed: 7}
	opts = opts.withDefaults()
	event := func(r int) (float64, error) {
		if rel.Value(r, ci).AsInt() == 1 {
			return 1, nil
		}
		return 0, nil
	}
	value := func(r int) (float64, error) { return rel.Value(r, ci).AsFloat(), nil }
	for _, bc := range []struct {
		name   string
		labels []func(int) (float64, error)
	}{
		{"count", []func(int) (float64, error){event}},
		{"avg", []func(int) (float64, error){value, event}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newEstimatorSet(newView(sqlmini.TableView(rel)), featCols, nil, 1, opts, lineage{}, obs.Stage{})
				for k, eval := range bc.labels {
					m, err := s.model(context.Background(), strconv.Itoa(k), 1, false, &labeler{eval: eval}, lineage{})
					if err != nil || m == nil {
						b.Fatalf("no model: %v", err)
					}
				}
			}
		})
	}
}
