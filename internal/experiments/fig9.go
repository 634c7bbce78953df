package experiments

import (
	"hyper/internal/dataset"
	"hyper/internal/howto"
)

const fig9Src = `
USE German
HOWTOUPDATE CreditAmount, Duration, InstallmentRate
LIMIT 0 <= POST(CreditAmount) <= 6000 AND 6 <= POST(Duration) <= 48 AND 1 <= POST(InstallmentRate) <= 4
TOMAXIMIZE COUNT(Credit = 1)`

// Fig9 reproduces Figure 9: how-to solution quality and running time on
// German-Syn (20k) with continuous attributes, as a function of the number
// of discretization buckets x. Quality is the ground-truth objective of a
// method's chosen updates over the ground-truth optimum on a 16-bucket grid
// (which stands in for Opt-HowTo on the continuous domain). GT-disc is the
// best achievable on the x-bucket grid, by exhaustive search with the exact
// structural-equation objective: it isolates discretization loss from
// estimation error. The paper's shape: quality within 10% of optimal from 4
// buckets up; Opt-discrete's work grows with the cube of the buckets (one
// factor per attribute) while the IP's grows linearly.
func Fig9(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	g := dataset.GermanSynContinuous(r.n(20000), r.Seed)
	q := r.parseHowTo(fig9Src)
	optimum := r.gtSearch(g, q, 16).Objective

	for _, buckets := range []int{1, 2, 4, 6, 8, 10} {
		row := Row{Exp: "fig9", Dataset: "German-Syn (20k) continuous", Query: "CreditAmount, Duration, InstallmentRate", X: buckets}
		o := howto.Options{Engine: r.options(HypeR), Buckets: buckets}
		if res := r.howTo(HypeR, g.DB, g.Model, q, o); res != nil {
			row.Arm = HypeR
			r.add(germanHowToRow(row, g, res, optimum))
		}
		if res := r.howTo(OptDisc, g.DB, g.Model, q, o); res != nil {
			row.Arm = OptDisc
			r.add(germanHowToRow(row, g, res, optimum))
			row.Arm = GTDisc
			r.add(germanHowToRow(row, g, r.gtSearch(g, q, buckets), optimum))
		}
	}
	return r.done()
}
