// Pricing: the Amazon-style scenario from the paper's introduction. On a
// synthetic product/review database with the causal model of Figure 2, we
// ask what proportional price changes do to product ratings, compare the
// HypeR estimate against the exact structural-equation ground truth, and
// rank brands by how much a 20% price cut would lift their average rating.
package main

import (
	"fmt"
	"log"
	"sort"

	"hyper"
	"hyper/internal/dataset"
)

const ratingView = `
USE (SELECT T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality,
            AVG(T2.Rating) AS Rtng
     FROM Product AS T1, Review AS T2
     WHERE T1.PID = T2.PID
     GROUP BY T1.PID, T1.Category, T1.Price, T1.Brand, T1.Quality)`

func main() {
	am := dataset.AmazonSyn(2000, 15, 42)
	s := hyper.NewSession(am.DB, am.Model)
	s.SetOptions(hyper.Options{Seed: 42})

	fmt.Println("What if all prices moved proportionally?")
	fmt.Printf("%-22s %18s %18s\n", "scenario", "HypeR frac(>=4)", "truth frac(>=4)")
	for _, c := range []struct {
		label string
		f     float64
	}{
		{"prices +20%", 1.2}, {"unchanged", 1.0}, {"prices -20%", 0.8}, {"prices -40%", 0.6},
	} {
		res, err := s.WhatIf(fmt.Sprintf(`%s UPDATE(Price) = %g * PRE(Price) OUTPUT COUNT(POST(Rtng) >= 4)`, ratingView, c.f))
		if err != nil {
			log.Fatal(err)
		}
		gt := am.CounterfactualShareRated(4, func(p float64) float64 { return c.f * p })
		fmt.Printf("%-22s %17.1f%% %17.1f%%\n", c.label, 100*res.Value/float64(res.ViewRows), 100*gt)
	}

	fmt.Println("\nWhich brand gains the most from a 20% price cut?")
	type lift struct {
		brand string
		delta float64
	}
	var lifts []lift
	for _, brand := range []string{"Apple", "Dell", "Toshiba", "Acer", "Asus", "HP"} {
		q := fmt.Sprintf(`%s WHEN Brand = '%s' UPDATE(Price) = 0.8 * PRE(Price)
OUTPUT AVG(POST(Rtng)) FOR PRE(Brand) = '%s'`, ratingView, brand, brand)
		cut, err := s.WhatIf(q)
		if err != nil {
			log.Fatal(err)
		}
		base, err := s.WhatIf(fmt.Sprintf(`%s WHEN Brand = '%s' UPDATE(Price) = 1 * PRE(Price)
OUTPUT AVG(POST(Rtng)) FOR PRE(Brand) = '%s'`, ratingView, brand, brand))
		if err != nil {
			log.Fatal(err)
		}
		lifts = append(lifts, lift{brand, cut.Value - base.Value})
	}
	sort.Slice(lifts, func(i, j int) bool { return lifts[i].delta > lifts[j].delta })
	for i, l := range lifts {
		fmt.Printf("  %d. %-8s %+.3f stars\n", i+1, l.brand, l.delta)
	}

	fmt.Println("\nHow to lift Asus laptop ratings by repricing (within bounds)?")
	ht, err := s.HowTo(ratingView + `
WHEN Brand = 'Asus' AND Category = 'Laptop'
HOWTOUPDATE Price
LIMIT 300 <= POST(Price) <= 1200
TOMAXIMIZE AVG(POST(Rtng))
FOR PRE(Brand) = 'Asus' AND PRE(Category) = 'Laptop'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", ht)
}
