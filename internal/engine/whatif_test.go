package engine

import (
	"context"
	"math"
	"testing"

	"hyper/internal/causal"
	"hyper/internal/dataset"
	"hyper/internal/hyperql"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

// Evaluate is EvaluateContext under the background context, for the tests of
// this package that have nothing to cancel.
func Evaluate(db *relation.Database, model *causal.Model, q *hyperql.WhatIf, opts Options) (*Result, error) {
	return EvaluateContext(context.Background(), db, model, q, opts)
}

// evalGerman runs a what-if query against a German-Syn instance.
func evalGerman(t *testing.T, g *dataset.Single, src string, opts Options) *Result {
	t.Helper()
	q, err := hyperql.ParseWhatIf(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Evaluate(g.DB, g.Model, q, opts)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return res
}

// groundTruthCountGood computes the exact post-update count of Credit=1 via
// the structural equations.
func groundTruthCountGood(g *dataset.Single, attr string, val float64) float64 {
	post := g.World.Counterfactual(prcm.Intervention{
		Attr: attr,
		Fn:   func(float64) float64 { return val },
	})
	ci := post.Schema().MustIndex("Credit")
	n := 0
	for ix := range post.Len() {
		row := post.Row(ix)
		if row[ci].AsInt() == 1 {
			n++
		}
	}
	return float64(n)
}

func TestWhatIfMatchesGroundTruthOnGermanSyn(t *testing.T) {
	g := dataset.GermanSyn(20000, 7)
	for _, tc := range []struct {
		attr string
		val  float64
	}{
		{"Status", 3}, {"Status", 0}, {"Savings", 3}, {"Housing", 2}, {"CreditAmount", 0},
	} {
		gt := groundTruthCountGood(g, tc.attr, tc.val) / float64(g.Rel().Len())
		res := evalGerman(t,
			g,
			"USE German UPDATE("+tc.attr+") = "+fmtF(tc.val)+" OUTPUT COUNT(Credit = 1)",
			Options{Mode: ModeFull, Seed: 1})
		got := res.Value / float64(g.Rel().Len())
		if math.Abs(got-gt) > 0.05 {
			t.Errorf("update %s=%g: HypeR=%.4f ground truth=%.4f (diff %.4f)", tc.attr, tc.val, got, gt, math.Abs(got-gt))
		}
	}
}

func TestNBMatchesFullOnGermanSyn(t *testing.T) {
	g := dataset.GermanSyn(20000, 7)
	full := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Mode: ModeFull, Seed: 1})
	nb := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Mode: ModeNB, Seed: 1})
	n := float64(g.Rel().Len())
	if math.Abs(full.Value-nb.Value)/n > 0.06 {
		t.Errorf("HypeR=%.4f HypeR-NB=%.4f differ by more than 6%%", full.Value/n, nb.Value/n)
	}
	if len(nb.Backdoor) <= len(full.Backdoor) {
		t.Errorf("NB backdoor (%v) should be larger than full backdoor (%v)", nb.Backdoor, full.Backdoor)
	}
}

func TestIndepIsBiasedOnGermanSyn(t *testing.T) {
	// Status is confounded by Age; raw correlation (Indep) must overestimate
	// the effect of forcing Status to its maximum (Figure 10a).
	g := dataset.GermanSyn(20000, 7)
	gt := groundTruthCountGood(g, "Status", 3) / float64(g.Rel().Len())
	indep := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Mode: ModeIndep, Seed: 1})
	full := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Mode: ModeFull, Seed: 1})
	n := float64(g.Rel().Len())
	if indep.Value/n <= gt+0.02 {
		t.Errorf("Indep=%.4f should exceed ground truth=%.4f by confounding bias", indep.Value/n, gt)
	}
	if math.Abs(full.Value/n-gt) >= math.Abs(indep.Value/n-gt) {
		t.Errorf("HypeR (%.4f) should be closer to ground truth (%.4f) than Indep (%.4f)", full.Value/n, gt, indep.Value/n)
	}
}

func TestSampledCloseToFull(t *testing.T) {
	g := dataset.GermanSyn(30000, 7)
	full := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Mode: ModeFull, Seed: 1})
	sampled := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)",
		Options{Mode: ModeFull, Seed: 1, SampleSize: 10000})
	n := float64(g.Rel().Len())
	if sampled.SampledRows != 10000 {
		t.Fatalf("sampled rows = %d, want 10000", sampled.SampledRows)
	}
	if math.Abs(full.Value-sampled.Value)/n > 0.03 {
		t.Errorf("sampled=%.4f full=%.4f differ by more than 3%%", sampled.Value/n, full.Value/n)
	}
}

func TestWhenRestrictsUpdateSet(t *testing.T) {
	g := dataset.GermanSyn(5000, 3)
	all := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Seed: 1})
	some := evalGerman(t, g, "USE German WHEN Age = 0 UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)", Options{Seed: 1})
	if some.UpdatedRows >= all.UpdatedRows {
		t.Fatalf("WHEN should restrict S: %d >= %d", some.UpdatedRows, all.UpdatedRows)
	}
	if some.Value >= all.Value {
		t.Errorf("partial update (%.1f) should lift credit less than full update (%.1f)", some.Value, all.Value)
	}
}

// TestNaNUpdateAttribute evaluates over a view whose update attribute F
// holds NaN (one payload, then two sharing a code), where a NaN is one value
// equal only to itself and above every number: UPDATE(F) = 1.5 changes every
// NaN row, so each is affected, and a WHEN selects a NaN row only where the
// order puts NaN.
func TestNaNUpdateAttribute(t *testing.T) {
	for _, kind := range []string{"nan-one", "nan"} {
		db, model := classWorld(kind)
		q, err := hyperql.ParseWhatIf(`USE T UPDATE(F) = 1.5 OUTPUT AVG(POST(Y))`)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepareEvaluation(context.Background(), db, model, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		view := p.v.Rel
		fi := view.Schema().MustIndex("F")
		nans, halves, big := 0, 0, 0 // rows holding NaN, 1.5, and a number >= 2
		for i := range view.Len() {
			f := view.Value(i, fi).AsFloat()
			switch {
			case math.IsNaN(f):
				nans++
			case f == 1.5:
				halves++
			case f >= 2:
				big++
			}
			if got, want := p.isAffected(i), f != 1.5; got != want {
				t.Fatalf("%s: row %d holding %v affected = %v, want %v", kind, i, f, got, want)
			}
		}
		if nans == 0 || halves == 0 {
			t.Fatalf("%s: world holds %d NaN rows and %d rows of 1.5", kind, nans, halves)
		}
		for when, want := range map[string]int{
			"F = 5":         0,
			"F = 1.5":       halves,
			"F != 1.5":      nans + big,
			"F >= 2":        nans + big,
			"F < 100":       halves + big,
			"F IN (1.5, 5)": halves,
		} {
			q, err := hyperql.ParseWhatIf("USE T WHEN " + when + " UPDATE(F) = 1.5 OUTPUT AVG(POST(Y))")
			if err != nil {
				t.Fatal(err)
			}
			res, err := Evaluate(db, model, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.UpdatedRows != want {
				t.Errorf("%s: WHEN %s updates %d rows, want %d", kind, when, res.UpdatedRows, want)
			}
		}
	}
}

func TestForPreFiltersPopulation(t *testing.T) {
	g := dataset.GermanSyn(5000, 3)
	res := evalGerman(t, g,
		"USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1) FOR PRE(Age) = 2", Options{Seed: 1})
	// Count of rows with Age=2.
	ai := g.Rel().Schema().MustIndex("Age")
	n := 0
	for ix := range g.Rel().Len() {
		row := g.Rel().Row(ix)
		if row[ai].AsInt() == 2 {
			n++
		}
	}
	if res.Value > float64(n) || res.Value <= 0 {
		t.Errorf("FOR-restricted count %.1f out of range (0, %d]", res.Value, n)
	}
}

func TestAvgAndSumConsistent(t *testing.T) {
	g := dataset.GermanSyn(5000, 3)
	avg := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT AVG(POST(Credit))", Options{Seed: 1})
	sum := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT SUM(POST(Credit))", Options{Seed: 1})
	cnt := evalGerman(t, g, "USE German UPDATE(Status) = 3 OUTPUT COUNT(*)", Options{Seed: 1})
	if math.Abs(avg.Value*cnt.Value-sum.Value) > 1e-6*sum.Value+1e-9 {
		t.Errorf("AVG*COUNT (%.4f) != SUM (%.4f)", avg.Value*cnt.Value, sum.Value)
	}
	if cnt.Value != float64(g.Rel().Len()) {
		t.Errorf("COUNT(*) with no FOR = %.1f, want %d", cnt.Value, g.Rel().Len())
	}
}

func TestBlocksDoNotChangeResult(t *testing.T) {
	// Proposition 1: block decomposition is an optimization, not a
	// semantics change.
	g := dataset.GermanSyn(3000, 9)
	with := evalGerman(t, g, "USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)", Options{Seed: 1})
	without := evalGerman(t, g, "USE German UPDATE(Savings) = 2 OUTPUT COUNT(Credit = 1)", Options{Seed: 1, DisableBlocks: true})
	if math.Abs(with.Value-without.Value) > 1e-9 {
		t.Errorf("blocks changed the result: %.6f vs %.6f", with.Value, without.Value)
	}
	if without.Blocks != 1 {
		t.Errorf("DisableBlocks should report 1 block, got %d", without.Blocks)
	}
}

func fmtF(f float64) string {
	if f == math.Trunc(f) {
		return string(rune('0' + int(f)))
	}
	panic("fmtF only supports small integers")
}
