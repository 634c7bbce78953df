package howto

import (
	"context"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/hyperql"
)

func TestMinimizeCostReachesTargetCheaply(t *testing.T) {
	g := dataset.GermanSynContinuous(5000, 107)
	q := parseHT(t, `
USE German
HOWTOUPDATE CreditAmount
LIMIT 0 <= POST(CreditAmount) <= 6000
TOMAXIMIZE COUNT(Credit = 1)`)
	opts := Options{Engine: engine.Options{Seed: 1}, Buckets: 8}

	// First find what maximization achieves, then ask for a modest target.
	maxRes, err := Evaluate(context.Background(), g.DB, g.Model, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := maxRes.Base + 0.3*(maxRes.Objective-maxRes.Base)
	res, err := MinimizeCost(context.Background(), g.DB, g.Model, q, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective < target-1 {
		t.Errorf("objective %.1f misses target %.1f", res.Objective, target)
	}
	// The cost-minimal update must be cheaper (closer to the data) than the
	// objective-maximal one.
	var minUpd, maxUpd *hyperql.UpdateSpec
	for _, c := range res.Choices {
		if c.Attr == "CreditAmount" {
			minUpd = c.Update
		}
	}
	for _, c := range maxRes.Choices {
		if c.Attr == "CreditAmount" {
			maxUpd = c.Update
		}
	}
	if minUpd == nil || maxUpd == nil {
		t.Fatalf("updates missing: min=%v max=%v", res, maxRes)
	}
	// Higher amounts help credit, so the maximizer picks the top bucket; the
	// cost minimizer must pick a lower (cheaper) one.
	if minUpd.Const.AsFloat() >= maxUpd.Const.AsFloat() {
		t.Errorf("cost-minimal update %v should be below objective-maximal %v", minUpd.Const, maxUpd.Const)
	}
}

func TestMinimizeCostInfeasibleTarget(t *testing.T) {
	g := dataset.GermanSyn(2000, 109)
	q := parseHT(t, `USE German HOWTOUPDATE Housing TOMAXIMIZE COUNT(Credit = 1)`)
	_, err := MinimizeCost(context.Background(), g.DB, g.Model, q, float64(g.Rel().Len())+1000,
		Options{Engine: engine.Options{Seed: 1}})
	if err == nil {
		t.Fatal("unreachable target should fail")
	}
}

func TestMinimizeCostZeroTargetIsFree(t *testing.T) {
	g := dataset.GermanSyn(2000, 113)
	q := parseHT(t, `USE German HOWTOUPDATE Status TOMAXIMIZE COUNT(Credit = 1)`)
	res, err := MinimizeCost(context.Background(), g.DB, g.Model, q, 0, Options{Engine: engine.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Choices {
		if c.Update != nil {
			t.Errorf("target below base should require no update, got %s", c)
		}
	}
}
