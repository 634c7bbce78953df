package hyper

// The root micro-benchmarks: the session cache's serving-path win, the
// benchmark's join_forest operation in miniature, and the experiment drivers
// at tiny scale. The paper's tables and figures are not benchmarks: their
// rows come from internal/experiments, are printed by cmd/hyperbench, held
// to the paper's shapes by TestFidelity and committed as EXPERIMENTS.md.
// Performance is measured by `bash bench/run.sh`.

import (
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/experiments"
)

// BenchmarkRepeatWhatIf measures the serving-path win of the shared session
// cache: the same what-if query evaluated from scratch every time (a
// cache-less Session) vs. repeated against a warm cache (the hyperd
// configuration), where view materialization and estimator training are
// memoized and only tuple evaluation remains.
func BenchmarkRepeatWhatIf(b *testing.B) {
	g := dataset.GermanSyn(20000, 7)
	const src = `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`
	b.Run("uncached", func(b *testing.B) {
		s := NewSession(g.DB, g.Model)
		s.SetOptions(Options{Seed: 7})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.WhatIf(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := NewSessionWithCache(g.DB, g.Model, NewCacheBounded(512))
		s.SetOptions(Options{Seed: 7})
		if _, err := s.WhatIf(src); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.WhatIf(src); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := s.Cache().Stats()
		b.ReportMetric(st.HitRate(), "hit-rate")
	})
}

// BenchmarkWhatIfJoinForest is the benchmark's join_forest operation in
// miniature: the Figure-1 join + GROUP BY view, cross-tuple blocks and a
// forest fit, on a session whose engine cache and plan cache are fresh per
// iteration so every stage runs in full.
func BenchmarkWhatIfJoinForest(b *testing.B) {
	am := dataset.AmazonSyn(2000, 12, 7)
	const src = `
USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality,
            AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)
WHEN Category = 'Laptop'
UPDATE(Price) = 0.90 * PRE(Price)
OUTPUT AVG(POST(Rtng))
FOR PRE(Category) = 'Laptop'`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSessionWithCache(am.DB, am.Model, NewCache())
		s.SetPlanCache(NewPlanCache(0))
		s.SetOptions(Options{Seed: 7})
		if _, err := s.WhatIf(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentHarness exercises three experiment drivers at tiny
// scale, ensuring the cmd/hyperbench paths stay healthy.
func BenchmarkExperimentHarness(b *testing.B) {
	selected, err := experiments.Select("usecases,fig8,backdoor")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range selected {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Config{Scale: 0.002, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
