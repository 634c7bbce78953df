package engine

import (
	"math"
	"testing"

	"hyper/internal/dataset"
	"hyper/internal/prcm"
	"hyper/internal/relation"
	"hyper/internal/stats"
)

// monteCarlo averages eval over n possible worlds sampled from w under the
// interventions: Definition 5 of the paper by simulation.
func monteCarlo(w *prcm.World, seed int64, n int, eval func(*relation.Relation) float64, ivs ...prcm.Intervention) float64 {
	rng := stats.NewRNG(seed)
	total := 0.0
	for i := 0; i < n; i++ {
		total += eval(w.SampleIntervention(rng, ivs...))
	}
	return total / float64(n)
}

// TestEngineMatchesPossibleWorldSemantics is the semantic differential test:
// the engine's closed-form backdoor computation (Section 3.3) must agree
// with the direct Monte-Carlo implementation of the possible-world semantics
// (Definitions 1-5) on the same post-update distribution.
func TestEngineMatchesPossibleWorldSemantics(t *testing.T) {
	g := dataset.GermanSyn(10000, 101)
	n := float64(g.Rel().Len())

	countGood := func(rel *relation.Relation) float64 {
		ci := rel.Schema().MustIndex("Credit")
		c := 0
		for ix := range rel.Len() {
			row := rel.Row(ix)
			c += int(row[ci].AsInt())
		}
		return float64(c)
	}

	cases := []struct {
		name  string
		query string
		iv    prcm.Intervention
	}{
		{
			"set-status-max",
			`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`,
			prcm.Intervention{Attr: "Status", Fn: func(float64) float64 { return 3 }},
		},
		{
			"set-savings-min",
			`USE German UPDATE(Savings) = 0 OUTPUT COUNT(Credit = 1)`,
			prcm.Intervention{Attr: "Savings", Fn: func(float64) float64 { return 0 }},
		},
		{
			"shift-housing",
			`USE German UPDATE(Housing) = 1 + PRE(Housing) OUTPUT COUNT(Credit = 1)`,
			prcm.Intervention{Attr: "Housing", Fn: func(pre float64) float64 { return pre + 1 }},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mc := monteCarlo(g.World, 11, 20, countGood, c.iv) / n
			res := evalGerman(t, g, c.query, Options{Seed: 1})
			engineVal := res.Value / n
			if math.Abs(engineVal-mc) > 0.03 {
				t.Errorf("engine %.4f vs possible-world Monte Carlo %.4f", engineVal, mc)
			}
		})
	}
}

// TestMonteCarloRestrictedUpdateSet validates that the WHEN-set semantics
// agree: only selected tuples' worlds vary.
func TestMonteCarloRestrictedUpdateSet(t *testing.T) {
	g := dataset.GermanSyn(8000, 103)
	n := float64(g.Rel().Len())
	ai := g.Rel().Schema().MustIndex("Age")
	rows := map[int]bool{}
	for i := range g.Rel().Len() {
		row := g.Rel().Row(i)
		if row[ai].AsInt() == 0 {
			rows[i] = true
		}
	}
	countGood := func(rel *relation.Relation) float64 {
		ci := rel.Schema().MustIndex("Credit")
		c := 0
		for ix := range rel.Len() {
			row := rel.Row(ix)
			c += int(row[ci].AsInt())
		}
		return float64(c)
	}
	// Status = 2 rather than the domain maximum: Age=0 & Status=3 has almost
	// no observational support (a positivity violation), where any
	// adjustment-based estimator is data-starved; level 2 is well supported.
	mc := monteCarlo(g.World, 13, 20, countGood,
		prcm.Intervention{Attr: "Status", Rows: rows, Fn: func(float64) float64 { return 2 }}) / n
	res := evalGerman(t, g, `USE German WHEN Age = 0 UPDATE(Status) = 2 OUTPUT COUNT(Credit = 1)`, Options{Seed: 1})
	if math.Abs(res.Value/n-mc) > 0.03 {
		t.Errorf("engine %.4f vs Monte Carlo %.4f with WHEN set", res.Value/n, mc)
	}
}
