package experiments

import (
	"fmt"

	"hyper/internal/dataset"
)

// Fig8 reproduces Figure 8: on the German and Adult datasets each listed
// attribute is hypothetically set to its domain minimum and maximum and the
// share of good-credit / high-income individuals is reported, with the
// max − min gap as a third row; a larger gap denotes higher attribute
// importance. The paper's shape: Status and CreditHistory dominate on
// German; MaritalStatus, Occupation and Education dominate on Adult while
// Workclass is weak.
func Fig8(cfg Config) ([]Row, error) {
	r := &run{Config: cfg}
	type attr struct {
		name string
		max  int
	}
	for _, d := range []struct {
		exp, table, outcome string
		g                   *dataset.Single
		attrs               []attr
	}{
		{"fig8a", "German", "Credit", dataset.GermanLike(r.n(1000), r.Seed),
			[]attr{{"Status", 3}, {"CreditHistory", 4}, {"Housing", 2}, {"Investment", 3}}},
		{"fig8b", "Adult", "Income", dataset.AdultSyn(r.n(32000), r.Seed+1),
			[]attr{{"MaritalStatus", 1}, {"Occupation", 5}, {"Education", 4}, {"Workclass", 3}}},
	} {
		for _, a := range d.attrs {
			row := Row{Exp: d.exp, Dataset: d.table, Arm: HypeR}
			var ends [2]Row
			for i, v := range []int{0, a.max} {
				row.Query, row.Truth = fmt.Sprintf("%s = %d", a.name, v), semShare(d.g, d.outcome, a.name, v)
				ends[i] = r.whatIf(row, d.g.DB, d.g.Model, countQuery(d.table, a.name, v, d.outcome), r.options(HypeR))
			}
			gap := Row{Exp: d.exp, Dataset: d.table, Query: a.name + " gap", Arm: HypeR,
				Estimate: ends[1].Estimate - ends[0].Estimate, Truth: ends[1].Truth - ends[0].Truth}
			r.add(ends[0], ends[1], gap)
		}
	}
	return r.done()
}
