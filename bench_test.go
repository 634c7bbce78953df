package hyper

// One benchmark per table/figure of the paper's evaluation (Section 5).
// Dataset sizes are scaled down so `go test -bench=.` stays interactive;
// cmd/hyperbench runs the same experiments at arbitrary scale and prints the
// full series. Custom metrics report the quantities the paper plots
// (query-output error, solution quality) alongside ns/op.

import (
	"context"
	"fmt"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/experiments"
	"hyper/internal/howto"
	"hyper/internal/hyperql"
	"hyper/internal/prcm"
)

const benchGermanRows = 20000

func germanBench(b *testing.B) *dataset.Single {
	b.Helper()
	return dataset.GermanSyn(benchGermanRows, 7)
}

func benchWhatIf(b *testing.B, g *dataset.Single, src string, opts engine.Options) *engine.Result {
	b.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		b.Fatal(err)
	}
	var res *engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = engine.Evaluate(g.DB, g.Model, q, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1 measures the Count what-if runtime per mode (Table 1's
// columns) on German-Syn.
func BenchmarkTable1(b *testing.B) {
	g := germanBench(b)
	for _, m := range []engine.Mode{engine.ModeFull, engine.ModeNB, engine.ModeIndep} {
		b.Run(m.String(), func(b *testing.B) {
			benchWhatIf(b, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2`,
				engine.Options{Mode: m, Seed: 7})
		})
	}
}

// BenchmarkTable1Amazon covers Table 1's multi-relation row: the Amazon
// join-view Count query.
func BenchmarkTable1Amazon(b *testing.B) {
	am := dataset.AmazonSyn(1500, 12, 7)
	q, err := hyperql.ParseWhatIf(`
USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality,
            AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality)
WHEN Category = 'Laptop'
UPDATE(Price) = 0.9 * PRE(Price)
OUTPUT COUNT(POST(Rtng) >= 4)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Evaluate(am.DB, am.Model, q, engine.Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SampleQuality reports the sampled-variant output error per
// sample size (Figure 6a).
func BenchmarkFig6SampleQuality(b *testing.B) {
	g := germanBench(b)
	q, _ := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
	full, err := engine.Evaluate(g.DB, g.Model, q, engine.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1000, 5000, 10000} {
		b.Run(fmt.Sprintf("sample%d", size), func(b *testing.B) {
			var res *engine.Result
			for i := 0; i < b.N; i++ {
				res, err = engine.Evaluate(g.DB, g.Model, q,
					engine.Options{Seed: int64(7 + i), SampleSize: size})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(abs(res.Value-full.Value)/float64(benchGermanRows), "output-err")
		})
	}
}

// BenchmarkFig6SampleTime is Figure 6b: runtime as the training-sample grows.
func BenchmarkFig6SampleTime(b *testing.B) {
	g := germanBench(b)
	for _, size := range []int{2000, 10000, benchGermanRows} {
		b.Run(fmt.Sprintf("sample%d", size), func(b *testing.B) {
			benchWhatIf(b, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
				engine.Options{Seed: 7, SampleSize: size})
		})
	}
}

// BenchmarkFig8AttributeImportance runs the min/max update pair per attribute
// (Figure 8a) on the 21-attribute German stand-in.
func BenchmarkFig8AttributeImportance(b *testing.B) {
	g := dataset.GermanLike(1000, 7)
	for _, attr := range []string{"Status", "CreditHistory", "Housing", "Investment"} {
		b.Run(attr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, v := range []string{"0", "3"} {
					q, err := hyperql.ParseWhatIf("USE German UPDATE(" + attr + ") = " + v + " OUTPUT COUNT(Credit = 1)")
					if err != nil {
						b.Fatal(err)
					}
					if _, err := engine.Evaluate(g.DB, g.Model, q, engine.Options{Seed: 7}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig9Discretization is Figure 9: the how-to IP per bucket count,
// reporting ground-truth solution quality.
func BenchmarkFig9Discretization(b *testing.B) {
	g := dataset.GermanSynContinuous(5000, 7)
	q, err := hyperql.ParseHowTo(`
USE German
HOWTOUPDATE CreditAmount, Duration, InstallmentRate
LIMIT 0 <= POST(CreditAmount) <= 6000 AND 6 <= POST(Duration) <= 48 AND 1 <= POST(InstallmentRate) <= 4
TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		b.Fatal(err)
	}
	gt := func(updates []hyperql.UpdateSpec) float64 {
		var ivs []prcm.Intervention
		for _, u := range updates {
			u := u
			ivs = append(ivs, prcm.Intervention{Attr: u.Attr, Fn: func(pre float64) float64 {
				return u.Apply(Float(pre)).AsFloat()
			}})
		}
		post := g.World.Counterfactual(ivs...)
		ci := post.Schema().MustIndex("Credit")
		n := 0
		for _, row := range post.Rows() {
			if row[ci].AsInt() == 1 {
				n++
			}
		}
		return float64(n)
	}
	fine, err := howto.Candidates(g.DB, q, howto.Options{Buckets: 16})
	if err != nil {
		b.Fatal(err)
	}
	opt, err := howto.BruteForceWith(q, fine, func(u []hyperql.UpdateSpec) (float64, error) { return gt(u), nil })
	if err != nil {
		b.Fatal(err)
	}
	for _, buckets := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("buckets%d", buckets), func(b *testing.B) {
			var res *howto.Result
			for i := 0; i < b.N; i++ {
				res, err = howto.Evaluate(context.Background(), g.DB, g.Model, q,
					howto.Options{Engine: engine.Options{Seed: 7}, Buckets: buckets})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gt(res.Updates())/opt.Objective, "quality")
		})
	}
}

// BenchmarkFig10Accuracy reports each mode's deviation from the exact
// counterfactual ground truth (Figure 10a).
func BenchmarkFig10Accuracy(b *testing.B) {
	g := germanBench(b)
	post := g.World.Counterfactual(prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 3 }})
	ci := post.Schema().MustIndex("Credit")
	good := 0
	for _, row := range post.Rows() {
		if row[ci].AsInt() == 1 {
			good++
		}
	}
	truth := float64(good) / float64(post.Len())
	for _, m := range []engine.Mode{engine.ModeFull, engine.ModeNB, engine.ModeIndep} {
		b.Run(m.String(), func(b *testing.B) {
			res := benchWhatIf(b, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
				engine.Options{Mode: m, Seed: 7})
			b.ReportMetric(abs(res.Value/float64(benchGermanRows)-truth), "truth-err")
		})
	}
}

// BenchmarkFig11For is Figure 11a: what-if runtime vs FOR attribute count.
func BenchmarkFig11For(b *testing.B) {
	st := dataset.StudentSynWide(3000, 5, 3, 7)
	base := `
USE (SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
            P.Assignment, P.Grade, P.Extra1, P.Extra2, P.Extra3,
            S.Age, S.Gender, S.Country, S.Attendance
     FROM Participation AS P, Student AS S
     WHERE P.SID = S.SID)
UPDATE(Assignment) = 95
OUTPUT COUNT(POST(Grade) >= 60)`
	fors := []string{"", " FOR PRE(Age) >= 0 AND PRE(Gender) >= 0 AND PRE(Country) >= 0",
		" FOR PRE(Age) >= 0 AND PRE(Gender) >= 0 AND PRE(Country) >= 0 AND PRE(Attendance) >= 0 AND PRE(Discussion) >= 0 AND PRE(Extra1) >= 0"}
	for i, f := range fors {
		b.Run(fmt.Sprintf("forAttrs%d", i*3), func(b *testing.B) {
			q, err := hyperql.ParseWhatIf(base + f)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				if _, err := engine.Evaluate(st.DB, st.Model, q, engine.Options{Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11HowTo is Figure 11b: IP vs brute force per attribute count.
func BenchmarkFig11HowTo(b *testing.B) {
	st := dataset.StudentSynWide(1000, 5, 3, 7)
	for _, k := range []int{2, 3} {
		attrs := []string{"Discussion", "HandRaised", "Announcements"}[:k]
		limits := ""
		for i, a := range attrs {
			if i > 0 {
				limits += " AND "
			}
			limits += "POST(" + a + ") IN (0, 5, 10)"
		}
		src := `
USE (SELECT P.SID, P.Course, P.Discussion, P.HandRaised, P.Announcements,
            P.Assignment, P.Grade, S.Age, S.Gender, S.Country, S.Attendance
     FROM Participation AS P, Student AS S
     WHERE P.SID = S.SID)
HOWTOUPDATE `
		for i, a := range attrs {
			if i > 0 {
				src += ", "
			}
			src += a
		}
		src += "\nLIMIT " + limits + "\nTOMAXIMIZE AVG(POST(Grade))"
		q, err := hyperql.ParseHowTo(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ip-attrs%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := howto.Evaluate(context.Background(), st.DB, st.Model, q, howto.Options{Engine: engine.Options{Seed: 7}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bruteforce-attrs%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := howto.BruteForce(context.Background(), st.DB, st.Model, q, howto.Options{Engine: engine.Options{Seed: 7}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12WhatIf is Figure 12a: what-if runtime vs dataset size.
func BenchmarkFig12WhatIf(b *testing.B) {
	for _, size := range []int{5000, 20000, 50000} {
		g := dataset.GermanSyn(size, 7)
		for _, m := range []struct {
			name string
			opts engine.Options
		}{
			{"HypeR", engine.Options{Seed: 7}},
			{"HypeR-sampled", engine.Options{Seed: 7, SampleSize: 10000}},
			{"Indep", engine.Options{Mode: engine.ModeIndep, Seed: 7}},
		} {
			b.Run(fmt.Sprintf("%s/rows%d", m.name, size), func(b *testing.B) {
				benchWhatIf(b, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, m.opts)
			})
		}
	}
}

// BenchmarkFig12HowTo is Figure 12b: how-to runtime vs dataset size.
func BenchmarkFig12HowTo(b *testing.B) {
	q, err := hyperql.ParseHowTo(`
USE German
HOWTOUPDATE Status, Savings, Housing, CreditAmount
TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{5000, 20000} {
		g := dataset.GermanSyn(size, 7)
		b.Run(fmt.Sprintf("ip/rows%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := howto.Evaluate(context.Background(), g.DB, g.Model, q, howto.Options{Engine: engine.Options{Seed: 7}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bruteforce/rows%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := howto.BruteForce(context.Background(), g.DB, g.Model, q, howto.Options{Engine: engine.Options{Seed: 7}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackdoorSize is the Section 5.5 backdoor-size study: minimal
// backdoor set vs all-attribute conditioning.
func BenchmarkBackdoorSize(b *testing.B) {
	g := germanBench(b)
	b.Run("minimal", func(b *testing.B) {
		benchWhatIf(b, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`, engine.Options{Seed: 7})
	})
	b.Run("all-attrs", func(b *testing.B) {
		benchWhatIf(b, g, `USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			engine.Options{Mode: engine.ModeNB, Seed: 7})
	})
}

// BenchmarkBlocksAblation verifies the block decomposition is a pure
// optimization (DESIGN.md ablation): identical results with and without.
func BenchmarkBlocksAblation(b *testing.B) {
	g := germanBench(b)
	b.Run("with-blocks", func(b *testing.B) {
		benchWhatIf(b, g, `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`, engine.Options{Seed: 7})
	})
	b.Run("without-blocks", func(b *testing.B) {
		benchWhatIf(b, g, `USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)`,
			engine.Options{Seed: 7, DisableBlocks: true})
	})
}

// BenchmarkEstimatorAblation compares the three conditional estimators
// (DESIGN.md ablation): exact frequency, boosted forest, linear — on the
// same German-Syn Count query, reporting ground-truth error.
func BenchmarkEstimatorAblation(b *testing.B) {
	g := dataset.GermanSyn(10000, 7)
	post := g.World.Counterfactual(prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 3 }})
	ci := post.Schema().MustIndex("Credit")
	good := 0
	for _, row := range post.Rows() {
		good += int(row[ci].AsInt())
	}
	truth := float64(good) / float64(post.Len())
	for _, e := range []struct {
		name string
		kind engine.EstimatorKind
	}{
		{"freq", engine.EstimatorFreq},
		{"forest", engine.EstimatorForest},
		{"linear", engine.EstimatorLinear},
	} {
		b.Run(e.name, func(b *testing.B) {
			q, _ := hyperql.ParseWhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
			var res *engine.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = engine.Evaluate(g.DB, g.Model, q, engine.Options{Seed: 7, Estimator: e.kind})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(abs(res.Value/10000-truth), "truth-err")
		})
	}
}

// BenchmarkRepeatWhatIf measures the serving-path win of the shared session
// cache: the same what-if query evaluated from scratch every time (a
// cache-less Session) vs. repeated against a warm cache (the hyperd
// configuration), where view materialization and estimator training are
// memoized and only tuple evaluation remains.
func BenchmarkRepeatWhatIf(b *testing.B) {
	g := germanBench(b)
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

// BenchmarkExperimentHarness exercises the full experiment drivers at tiny
// scale, ensuring the cmd/hyperbench paths stay healthy.
func BenchmarkExperimentHarness(b *testing.B) {
	cfg := experiments.Config{Scale: 0.002, Seed: 7}
	for _, e := range []struct {
		name string
		fn   func(experiments.Config) error
	}{
		{"usecases", experiments.UseCases},
		{"fig8", experiments.Fig8},
		{"backdoor", experiments.BackdoorSize},
	} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.fn(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
