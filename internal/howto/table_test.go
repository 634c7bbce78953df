package howto

// Tests of the shared table → model → result pipeline against things that
// share no code with it: the single-objective lexicographic solve against
// Evaluate's filter, and branch and bound against exhaustive enumeration of
// the very model each formulation emits.

import (
	"context"
	"math"
	"testing"

	"hyper/internal/engine"
	"hyper/internal/ip"
)

// toyFigure5 is the how-to query of the paper's Figure 5 on the toy database.
var toyFigure5 = howtoParityCase{
	name:   "toy-figure5",
	toy:    true,
	method: "ip",
	srcs: []string{`
		USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color,
		            AVG(Sentiment) AS Senti, AVG(T2.Rating) AS Rtng
		     FROM Product AS T1, Review AS T2
		     WHERE T1.PID = T2.PID
		     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Color)
		WHEN Brand = 'Asus' AND Category = 'Laptop'
		HOWTOUPDATE Price, Color
		LIMIT 500 <= POST(Price) <= 800 AND L1(PRE(Price), POST(Price)) <= 400
		TOMAXIMIZE AVG(POST(Rtng))
		FOR (PRE(Category) = 'Laptop' OR PRE(Category) = 'DSLR Camera') AND Brand = 'Asus'`},
}

// TestLexicographicOfOneIsEvaluate: a one-objective lexicographic solve is
// the plain IP, so it must agree with Evaluate on everything but the
// zero-gain selections Evaluate reports as "no change".
func TestLexicographicOfOneIsEvaluate(t *testing.T) {
	opts := Options{Engine: engine.Options{Seed: 7}}
	for _, c := range append([]howtoParityCase{toyFigure5}, howtoParityCases...) {
		db, model, qs := c.load(t)
		for qi, q := range qs {
			ev, err := Evaluate(context.Background(), db, model, q, opts)
			if err != nil {
				t.Fatalf("%s[%d]: Evaluate: %v", c.name, qi, err)
			}
			lex, err := Lexicographic(context.Background(), db, model, qs[qi:qi+1], opts)
			if err != nil {
				t.Fatalf("%s[%d]: Lexicographic: %v", c.name, qi, err)
			}
			if f17h(ev.Base) != f17h(lex.Base) || ev.Candidates != lex.Candidates ||
				ev.WhatIfEvals != lex.WhatIfEvals || ev.IPNodes != lex.IPNodes {
				t.Errorf("%s[%d]: base/candidates/evals/nodes %s/%d/%d/%d vs lexicographic %s/%d/%d/%d", c.name, qi,
					f17h(ev.Base), ev.Candidates, ev.WhatIfEvals, ev.IPNodes,
					f17h(lex.Base), lex.Candidates, lex.WhatIfEvals, lex.IPNodes)
			}
			for i, ec := range ev.Choices {
				lc := lex.Choices[i]
				gain := lc.Delta
				if !q.Maximize {
					gain = -gain
				}
				switch {
				case ec.Update != nil && (lc.Update == nil || *ec.Update != *lc.Update || ec.Delta != lc.Delta):
					t.Errorf("%s[%d]: %s but lexicographic %s", c.name, qi, ec, lc)
				case ec.Update == nil && lc.Update != nil && gain > 1e-12:
					t.Errorf("%s[%d]: Evaluate dropped %s with gain %g", c.name, qi, lc, gain)
				}
			}
		}
	}
}

// TestFormulationsMatchEnumeration rebuilds the model each formulation
// solves from the shared table and checks branch and bound against
// ip.Model.EnumerateFeasible on it, level by level, then that the public
// entry point reports exactly that selection.
func TestFormulationsMatchEnumeration(t *testing.T) {
	ctx := context.Background()
	opts := Options{Engine: engine.Options{Seed: 7}}
	solveBoth := func(t *testing.T, m *ip.Model) *ip.Solution {
		t.Helper()
		sol, err := m.SolveContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		enum, err := m.EnumerateFeasible()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != enum.Status || math.Abs(sol.Obj-enum.Obj) > 1e-9 {
			t.Fatalf("branch and bound %v obj=%.17g, enumeration %v obj=%.17g\n%s", sol.Status, sol.Obj, enum.Status, enum.Obj, m)
		}
		return sol
	}
	checked := map[string]int{}
	for _, c := range append([]howtoParityCase{toyFigure5}, howtoParityCases...) {
		if c.method == "brute" {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			db, model, qs := c.load(t)
			tab, err := newTable(ctx, db, model, qs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.vars) > 24 { // EnumerateFeasible's own limit
				t.Skipf("%d variables: too many to enumerate", len(tab.vars))
			}
			var selected []int
			nodes := 0
			switch c.method {
			case "mincost":
				m, err := tab.minCostModel(c.target)
				if err != nil {
					t.Fatal(err)
				}
				sol := solveBoth(t, m)
				selected, nodes = sol.Selected(), sol.Nodes
			default: // ip is the one-level lexicographic program
				var pinned []float64
				for oi := range qs {
					m, err := tab.lexModel(oi, pinned)
					if err != nil {
						t.Fatal(err)
					}
					sol := solveBoth(t, m)
					selected, nodes = sol.Selected(), nodes+sol.Nodes
					achieved := 0.0
					for _, vi := range selected {
						achieved += tab.deltas[oi][vi]
					}
					pinned = append(pinned, achieved)
				}
			}
			got := howtoParityEval(t, c)
			want := tab.result(selected, nodes)
			if c.method == "ip" {
				// Evaluate's filter can only turn choices into "no change".
				for i, ch := range got.Choices {
					if ch.Update != nil && ch.String() != want.Choices[i].String() {
						t.Errorf("Evaluate chose %s, the enumerated model %s", ch, want.Choices[i])
					}
				}
			} else if got.String() != want.String() {
				t.Errorf("entry point = %s\n  model's optimum = %s", got, want)
			}
			if got.IPNodes != want.IPNodes {
				t.Errorf("IPNodes = %d, rebuilt model explored %d", got.IPNodes, want.IPNodes)
			}
			checked[c.method]++
		})
	}
	for _, method := range []string{"ip", "mincost", "lex"} {
		if checked[method] == 0 {
			t.Errorf("no %s instance was small enough to enumerate", method)
		}
	}
}
