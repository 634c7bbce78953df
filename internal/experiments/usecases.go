package experiments

import (
	"fmt"
	"sort"

	"hyper/internal/dataset"
)

// UseCases reproduces the real-world what-if case studies of Section 5.3
// (query templates of Figure 7): German credit drivers, the Adult
// marital-status effect on income, and Amazon price effects on ratings.
func UseCases(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}

	g := dataset.GermanLike(r.n(1000), r.Seed)
	row := Row{Exp: "usecase-german", Dataset: "German", Arm: HypeR}
	for _, c := range []struct {
		attr string
		v    int
	}{{"Status", 3}, {"Status", 0}, {"CreditHistory", 4}, {"CreditHistory", 0}, {"Housing", 2}, {"Investment", 3}} {
		row.Query, row.Truth = fmt.Sprintf("%s = %d", c.attr, c.v), semShare(g, "Credit", c.attr, c.v)
		r.add(r.whatIf(row, g.DB, g.Model, countQuery("German", c.attr, c.v, "Credit"), r.options(HypeR)))
	}
	row.Query, row.Truth = "Status = 3 and CreditHistory = 4", none
	r.add(r.whatIf(row, g.DB, g.Model,
		`USE German UPDATE(Status) = 3 AND UPDATE(CreditHistory) = 4 OUTPUT COUNT(Credit = 1)`, r.options(HypeR)))
	observed := semCount(g, "Credit", nil) / float64(g.Rel().Len())
	r.add(Row{Exp: row.Exp, Dataset: row.Dataset, Query: "(no update)", Arm: "observed", Estimate: observed, Truth: observed})

	a := dataset.AdultSyn(r.n(32000), r.Seed+1)
	row = Row{Exp: "usecase-adult", Dataset: "Adult", Arm: HypeR}
	for v, label := range []string{"everyone never-married", "everyone married", "everyone divorced"} {
		row.Query, row.Truth = label, semShare(a, "Income", "MaritalStatus", v)
		r.add(r.whatIf(row, a.DB, a.Model, fmt.Sprintf(adultCountSrc, v), r.options(HypeR)))
	}
	observed = semCount(a, "Income", nil) / float64(a.Rel().Len())
	r.add(Row{Exp: row.Exp, Dataset: row.Dataset, Query: "(no update)", Arm: "observed", Estimate: observed, Truth: observed})

	// Share of products with average rating >= 4 as all prices move up or
	// down proportionally (the paper's 80th/60th/40th-percentile sweep:
	// cheaper products earn better ratings).
	am := dataset.AmazonSyn(r.n(3000), 18, r.Seed+2)
	row = Row{Exp: "usecase-amazon", Dataset: "Amazon", Arm: HypeR}
	for _, f := range []float64{1.2, 1.0, 0.8, 0.6} {
		row.Query = fmt.Sprintf("prices × %g", f)
		row.Truth = am.CounterfactualShareRated(4, func(p float64) float64 { return f * p })
		r.add(r.whatIf(row, am.DB, am.Model, amazonQuery("", f, "COUNT(POST(Rtng) >= 4)"), r.options(HypeR)))
	}

	// Per-brand average-rating lift from a 20% price cut, ranked.
	var lifts []Row
	row = Row{Exp: "usecase-amazon-brands", Dataset: "Amazon", Arm: HypeR, Truth: none}
	for _, brand := range []string{"Apple", "Dell", "Toshiba", "Acer", "Asus"} {
		when := "Brand = '" + brand + "'"
		output := "AVG(POST(Rtng)) FOR PRE(Brand) = '" + brand + "'"
		row.Query = brand + " prices × 0.8, lift"
		cut := r.whatIf(row, am.DB, am.Model, amazonQuery(when, 0.8, output), r.options(HypeR))
		base := r.whatIf(row, am.DB, am.Model, amazonQuery(when, 1, output), r.options(HypeR))
		cut.Estimate -= base.Estimate
		cut.Runtime += base.Runtime
		lifts = append(lifts, cut)
	}
	sort.SliceStable(lifts, func(i, j int) bool { return lifts[i].Estimate > lifts[j].Estimate })
	r.add(lifts...)
	return r.done()
}
