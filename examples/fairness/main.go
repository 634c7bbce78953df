// Fairness: the Adult-income analysis of Section 5.3. The Adult dataset is
// a staple of the fairness literature; HypeR's what-if queries quantify the
// causal effect of demographic and socio-economic attributes on the
// high-income outcome, reproducing the paper's observations that marital
// status, occupation and education dominate while workclass barely matters —
// and exposing how a correlation-only analysis (Indep) misattributes
// effects.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"hyper"
	"hyper/internal/dataset"
	"hyper/internal/prcm"
)

func main() {
	a := dataset.AdultSyn(20000, 3)
	n := float64(a.Rel().Len())

	fmt.Println("What fraction would earn >50K under hypothetical updates?")
	fmt.Println("(Figure 7b template: UPDATE(B)=b OUTPUT COUNT(*) FOR POST(Income)=1)")
	s := hyper.NewSession(a.DB, a.Model)
	s.SetOptions(hyper.Options{Seed: 3})
	for _, c := range []struct{ label, src string }{
		{"everyone married", `USE Adult UPDATE(MaritalStatus) = 1 OUTPUT COUNT(*) FOR POST(Income) = 1`},
		{"everyone never-married", `USE Adult UPDATE(MaritalStatus) = 0 OUTPUT COUNT(*) FOR POST(Income) = 1`},
		{"top education for all", `USE Adult UPDATE(Education) = 4 OUTPUT COUNT(*) FOR POST(Income) = 1`},
		{"lowest education for all", `USE Adult UPDATE(Education) = 0 OUTPUT COUNT(*) FOR POST(Income) = 1`},
	} {
		res, err := s.WhatIf(c.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s %5.1f%%\n", c.label, 100*res.Value/n)
	}

	fmt.Println("\nAttribute importance (min->max output gap), ranked:")
	type imp struct {
		attr string
		gap  float64
	}
	var imps []imp
	for _, c := range []struct {
		attr     string
		min, max int
	}{
		{"MaritalStatus", 0, 1}, {"Occupation", 0, 5}, {"Education", 0, 4},
		{"HoursPerWeek", 0, 3}, {"Workclass", 0, 3},
	} {
		lo, err := s.WhatIf(fmt.Sprintf(`USE Adult UPDATE(%s) = %d OUTPUT COUNT(Income = 1)`, c.attr, c.min))
		if err != nil {
			log.Fatal(err)
		}
		hi, err := s.WhatIf(fmt.Sprintf(`USE Adult UPDATE(%s) = %d OUTPUT COUNT(Income = 1)`, c.attr, c.max))
		if err != nil {
			log.Fatal(err)
		}
		imps = append(imps, imp{c.attr, (hi.Value - lo.Value) / n})
	}
	sort.Slice(imps, func(i, j int) bool { return imps[i].gap > imps[j].gap })
	for i, im := range imps {
		fmt.Printf("  %d. %-14s %.3f\n", i+1, im.attr, im.gap)
	}

	fmt.Println("\nCausal (HypeR) vs correlational (Indep) effect of marriage, against ground truth:")
	truthRel := a.World.Counterfactual(prcm.Intervention{Attr: "MaritalStatus", Fn: func(float64) float64 { return 1 }})
	ii := truthRel.Schema().MustIndex("Income")
	good := 0
	for i := range truthRel.Len() {
		good += int(truthRel.Value(i, ii).AsInt())
	}
	truth := float64(good) / n
	for _, mode := range []hyper.Mode{hyper.ModeFull, hyper.ModeIndep} {
		sm := hyper.NewSession(a.DB, a.Model)
		sm.SetOptions(hyper.Options{Mode: mode, Seed: 3})
		res, err := sm.WhatIf(`USE Adult UPDATE(MaritalStatus) = 1 OUTPUT COUNT(Income = 1)`)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %.3f (truth %.3f)\n", mode, res.Value/n, truth)
	}

	fmt.Println("\nPlan for the marriage query:")
	q, err := hyper.Parse(`USE Adult UPDATE(MaritalStatus) = 1 OUTPUT COUNT(Income = 1)`)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := s.Explain(context.Background(), q.(*hyper.WhatIfQuery))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
}
