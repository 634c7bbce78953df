package howto

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
	"hyper/internal/prcm"
	"hyper/internal/relation"
)

const germanHowTo = `
USE German
HOWTOUPDATE Status, Savings, Housing, CreditAmount
TOMAXIMIZE COUNT(Credit = 1)`

func TestHowToPicksStrongestAttributes(t *testing.T) {
	g := dataset.GermanSyn(10000, 11)
	q, err := hyperql.ParseHowTo(germanHowTo)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if res.Objective <= res.Base {
		t.Fatalf("objective %.1f should improve on base %.1f", res.Objective, res.Base)
	}
	// Status has the strongest coefficient; its chosen update must be the
	// maximum status value.
	var status *Choice
	for i := range res.Choices {
		if res.Choices[i].Attr == "Status" {
			status = &res.Choices[i]
		}
	}
	if status == nil || status.Update == nil {
		t.Fatalf("Status should be updated: %s", res)
	}
	if status.Update.Const.AsFloat() != 3 {
		t.Errorf("Status should be set to its max (3), got %s", status.Update.Const)
	}
}

func TestHowToMatchesBruteForce(t *testing.T) {
	g := dataset.GermanSyn(5000, 13)
	src := `
USE German
HOWTOUPDATE Status, Housing
LIMIT UPDATES <= 2
TOMAXIMIZE COUNT(Credit = 1)`
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ipRes, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("ip evaluate: %v", err)
	}
	bfRes, err := BruteForce(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("brute force: %v", err)
	}
	// The IP scores candidates with additive deltas while brute force
	// evaluates combinations jointly, so their *estimates* may differ under
	// a non-linear outcome; what must hold is that the IP's chosen
	// combination is essentially as good as brute force's when both are
	// scored by the exact structural-equation ground truth.
	gt := func(updates []hyperql.UpdateSpec) float64 {
		var ivs []prcm.Intervention
		for _, u := range updates {
			u := u
			ivs = append(ivs, prcm.Intervention{Attr: u.Attr, Fn: func(pre float64) float64 {
				return u.Apply(relation.Float(pre)).AsFloat()
			}})
		}
		post := g.World.Counterfactual(ivs...)
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
	ipGT, bfGT := gt(ipRes.Updates()), gt(bfRes.Updates())
	if ipGT < 0.97*bfGT {
		t.Errorf("IP combination achieves %.1f (ground truth), brute-force combination %.1f", ipGT, bfGT)
	}
	if ipRes.WhatIfEvals >= bfRes.WhatIfEvals {
		t.Errorf("IP should need fewer what-if evaluations (%d) than brute force (%d)", ipRes.WhatIfEvals, bfRes.WhatIfEvals)
	}
}

func TestHowToBudgetOne(t *testing.T) {
	// With a budget of one update, the best single attribute must be chosen
	// (Status, the strongest one).
	g := dataset.GermanSyn(8000, 17)
	src := `
USE German
HOWTOUPDATE Status, Savings, Housing, CreditAmount
LIMIT UPDATES <= 1
TOMAXIMIZE COUNT(Credit = 1)`
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	updated := 0
	var which string
	for _, c := range res.Choices {
		if c.Update != nil {
			updated++
			which = c.Attr
		}
	}
	if updated != 1 {
		t.Fatalf("budget 1 violated: %d updates in %s", updated, res)
	}
	if which != "Status" {
		t.Errorf("best single update should be Status, got %s", which)
	}
}

func TestHowToRangeAndL1Limits(t *testing.T) {
	g := dataset.GermanSynContinuous(5000, 19)
	src := `
USE German
HOWTOUPDATE CreditAmount
LIMIT 1000 <= POST(CreditAmount) <= 3000 AND L1(PRE(CreditAmount), POST(CreditAmount)) <= 5000
TOMAXIMIZE COUNT(Credit = 1)`
	q, err := hyperql.ParseHowTo(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cands, err := Candidates(g.DB, q, Options{Buckets: 10})
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	if len(cands["CreditAmount"]) == 0 {
		t.Fatal("no candidates generated")
	}
	for _, spec := range cands["CreditAmount"] {
		v := spec.Const.AsFloat()
		if v < 1000 || v > 3000 {
			t.Errorf("candidate %g violates LIMIT range", v)
		}
	}
}

func TestHowToAgainstGroundTruthOptimum(t *testing.T) {
	// Evaluate the IP answer's objective with the structural equations and
	// compare to the exhaustive ground-truth optimum (Section 5.4).
	g := dataset.GermanSyn(10000, 23)
	q, err := hyperql.ParseHowTo(germanHowTo)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Evaluate(context.Background(), g.DB, g.Model, q, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}

	gtEval := func(updates []hyperql.UpdateSpec) (float64, error) {
		var ivs []prcm.Intervention
		for _, u := range updates {
			u := u
			ivs = append(ivs, prcm.Intervention{Attr: u.Attr, Fn: func(pre float64) float64 {
				return u.Apply(relation.Float(pre)).AsFloat()
			}})
		}
		post := g.World.Counterfactual(ivs...)
		ci := post.Schema().MustIndex("Credit")
		n := 0
		for ix := range post.Len() {
			row := post.Row(ix)
			if row[ci].AsInt() == 1 {
				n++
			}
		}
		return float64(n), nil
	}
	cands, err := Candidates(g.DB, q, Options{})
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	opt, err := BruteForceWith(q, cands, gtEval)
	if err != nil {
		t.Fatalf("ground-truth brute force: %v", err)
	}
	got, err := gtEval(res.Updates())
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.97*opt.Objective {
		t.Errorf("HypeR how-to achieves %.1f, ground-truth optimum %.1f (< 97%%)", got, opt.Objective)
	}
}

func TestLexicographic(t *testing.T) {
	g := dataset.GermanSyn(5000, 29)
	q1, err := hyperql.ParseHowTo(`USE German HOWTOUPDATE Status, Savings TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := hyperql.ParseHowTo(`USE German HOWTOUPDATE Status, Savings TOMAXIMIZE AVG(POST(Savings))`)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Evaluate(context.Background(), g.DB, g.Model, q1, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Lexicographic(context.Background(), g.DB, g.Model, []*hyperql.HowTo{q1, q2}, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The first objective must be preserved by the lexicographic solve.
	if math.Abs(multi.Objective-single.Objective) > 1e-6*math.Abs(single.Objective)+1e-6 {
		t.Errorf("lexicographic first objective %.4f != single-objective optimum %.4f", multi.Objective, single.Objective)
	}
}

// TestHowToAliasedUpdate: a HOWTOUPDATE attribute is a view column, found
// through the relevant view's sources as a what-if UPDATE is — so updating
// Price under the alias P chooses the same updates, at the same objective, as
// updating it by its base name, by the IP and by brute force alike.
func TestHowToAliasedUpdate(t *testing.T) {
	a := dataset.AmazonSyn(200, 4, 7)
	const src = `
		USE (SELECT T1.PID, T1.Category, T1.Price%s, T1.Brand, T1.Color, T1.Quality, AVG(T2.Rating) AS Rtng
		     FROM Product AS T1, Review AS T2 WHERE T1.PID = T2.PID
		     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color, T1.Quality)
		WHEN Category = 'Laptop'
		HOWTOUPDATE %s, Color
		LIMIT 300 <= POST(%[2]s) <= 1200
		TOMAXIMIZE AVG(POST(Rtng))`
	parse := func(alias, attr string) *hyperql.HowTo {
		q, err := hyperql.ParseHowTo(fmt.Sprintf(src, alias, attr))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, method := range []struct {
		name string
		run  func(*hyperql.HowTo) (*Result, error)
	}{
		{"ip", func(q *hyperql.HowTo) (*Result, error) {
			return Evaluate(context.Background(), a.DB, a.Model, q, Options{Engine: engine.Options{Seed: 7}})
		}},
		{"brute", func(q *hyperql.HowTo) (*Result, error) {
			return BruteForce(context.Background(), a.DB, a.Model, q, Options{Engine: engine.Options{Seed: 7}})
		}},
	} {
		want, err := method.run(parse("", "Price"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := method.run(parse(" AS P", "P"))
		if err != nil {
			t.Fatalf("%s: %v", method.name, err)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || math.Float64bits(got.Base) != math.Float64bits(want.Base) || len(got.Choices) != len(want.Choices) {
			t.Fatalf("%s: aliased %v, unaliased %v", method.name, got, want)
		}
		for i, c := range got.Choices {
			w := want.Choices[i]
			if (c.Update == nil) != (w.Update == nil) || c.Update != nil &&
				(c.Update.Form != w.Update.Form || !c.Update.Const.Equal(w.Update.Const)) {
				t.Errorf("%s: choice %d is %v, unaliased %v", method.name, i, c, w)
			}
		}
	}
}
