// Credit: the German-credit scenario of Section 5. On the German-Syn
// database we (1) measure the causal effect of account status on credit
// standing, showing how the correlation-based Indep baseline overstates it,
// (2) answer a constrained how-to query with the IP engine, and (3) solve a
// preferential two-objective how-to query lexicographically.
package main

import (
	"context"
	"fmt"
	"log"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/prcm"
)

func main() {
	g := dataset.GermanSyn(20000, 7)
	n := float64(g.Rel().Len())

	fmt.Println("What if every account's status were set to its best value?")
	truthRel := g.World.Counterfactual(prcm.Intervention{
		Attr: "Status", Fn: func(float64) float64 { return 3 },
	})
	truth := countGood(truthRel) / n
	for _, mode := range []hyper.Mode{hyper.ModeFull, hyper.ModeNB, hyper.ModeIndep} {
		s := hyper.NewSession(g.DB, g.Model)
		s.SetOptions(hyper.Options{Mode: mode, Seed: 7})
		res, err := s.WhatIf(`USE German UPDATE(Status) = 3 OUTPUT COUNT(Credit = 1)`)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s frac good credit = %.3f (truth %.3f, backdoor %v)\n",
			mode, res.Value/n, truth, res.Backdoor)
	}

	s := hyper.NewSession(g.DB, g.Model)
	s.SetOptions(hyper.Options{Seed: 7})

	fmt.Println("\nHow to maximize good credit by changing at most two attributes?")
	ht, err := s.HowTo(`
USE German
HOWTOUPDATE Status, Savings, Housing, CreditAmount
LIMIT UPDATES <= 2
TOMAXIMIZE COUNT(Credit = 1)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", ht)

	fmt.Println("\nCheapest way to reach 70% good credit (cost-minimizing how-to):")
	mc, err := s.HowToMinimizeCost(context.Background(), parse(`
USE German
HOWTOUPDATE Status, Savings, Housing, CreditAmount
TOMAXIMIZE COUNT(Credit = 1)`), 0.70*n, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", mc)

	fmt.Println("\nLexicographic: first maximize good credit, then prefer high savings:")
	lex, err := s.HowToLexicographic(context.Background(), nil, parse(`
USE German
HOWTOUPDATE Status, Savings
TOMAXIMIZE COUNT(Credit = 1)`), parse(`
USE German
HOWTOUPDATE Status, Savings
TOMAXIMIZE AVG(POST(Savings))`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", lex)
}

func parse(src string) *hyper.HowToQuery {
	q, err := hyper.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	return q.(*hyper.HowToQuery)
}

func countGood(rel *hyper.Relation) float64 {
	ci := rel.Schema().MustIndex("Credit")
	n := 0
	for i := range rel.Len() {
		if rel.Value(i, ci).AsInt() == 1 {
			n++
		}
	}
	return float64(n)
}
