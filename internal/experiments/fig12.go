package experiments

import (
	"hyper/internal/dataset"
	"hyper/internal/engine"
	"hyper/internal/howto"
)

// Fig12 reproduces Figure 12: cost versus dataset size x on German-Syn, for
// five what-if queries (a) and for the Section 5.4 how-to (b). The paper's
// shape: HypeR and Indep grow linearly; HypeR-sampled flattens once the size
// passes its sample cap; Opt-HowTo, run only up to the scaled 100k rows, is
// orders of magnitude slower than the IP.
func Fig12(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	whatIfs := []struct{ label, src string }{
		{"Status = 3", countQuery("German", "Status", 3, "Credit")},
		{"Savings = 0", countQuery("German", "Savings", 0, "Credit")},
		{"Housing = 2 | Age = 1", countQuery("German", "Housing", 2, "Credit") + " FOR PRE(Age) = 1"},
		{"CreditAmount = 3 (avg)", `USE German UPDATE(CreditAmount) = 3 OUTPUT AVG(POST(Credit))`},
		{"Status = 2 | Credit = 1", `USE German UPDATE(Status) = 2 OUTPUT COUNT(*) FOR POST(Credit) = 1`},
	}
	q := r.parseHowTo(germanHowToSrc)

	var howTos []Row
	for _, paper := range []int{10000, 100000, 250000, 500000, 1000000} {
		g := dataset.GermanSyn(r.n(paper), r.Seed)
		row := Row{Dataset: "German-Syn", X: g.Rel().Len(), Truth: none}

		// The HypeR arms force the paper's forest estimator so training cost
		// scales with x (and HypeR-sampled flattens past its cap); Indep
		// keeps the default estimator.
		row.Exp = "fig12a"
		for qi, w := range whatIfs {
			for _, arm := range []string{HypeR, Sampled, Indep} {
				o := r.options(arm)
				o.Seed += int64(qi)
				if arm != Indep {
					o.Estimator = engine.EstimatorForest
				}
				row.Query, row.Arm = w.label, arm
				r.add(r.whatIf(row, g.DB, g.Model, w.src, o))
			}
		}

		row.Exp, row.Query = "fig12b", "Status, Savings, Housing, CreditAmount"
		for _, arm := range []string{HypeR, Sampled, OptHowTo} {
			if arm == OptHowTo && paper > 100000 {
				continue
			}
			if res := r.howTo(arm, g.DB, g.Model, q, howto.Options{Engine: r.options(arm)}); res != nil {
				row.Arm = arm
				howTos = append(howTos, germanHowToRow(row, g, res, 0))
			}
		}
	}
	r.add(howTos...)
	return r.done()
}
